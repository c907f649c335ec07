//! The shard worker: one OS process owning one shard of a run.
//!
//! A worker is wire decode and encode around the same
//! [`ShardStepper`] the in-process transport (`lcl_shard::run`) steps.
//! It reconstructs its shard of the computation from an [`InitCmd`] —
//! graph, input, and fault plan are rebuilt locally from the
//! deterministic spec, and only the owned nodes' ids are shipped — and
//! then runs one stepper phase (`begin`, `compute`, `deliver`,
//! `finish`, `output`) per supervisor command. Halo batches leave in
//! the `computed` reply and arrive in the `deliver` command, through
//! the stepper's checked intake, so a malformed command is an `Err`,
//! not a panic. Each reply ships the fault buffers its phase filled,
//! exactly once, for the coordinator (`lcl_shard::coordinator`) to
//! merge as it merges the in-process shards' — which is what makes a
//! proc run equal to the in-process run.
//!
//! The worker has no deadline logic and no notion of its own death:
//! its budget is unlimited, and `Fault::ShardKill` is filtered out of
//! the carved domain plan, so a kill arrives only as a real `SIGKILL`
//! from the supervisor. An escaped panic kills the whole process, which
//! the supervisor observes as worker death. Replay rehydration works
//! because everything here is deterministic — a respawned worker fed
//! the same command history lands in the same state, byte for byte.

use std::io::{BufRead, Write};

use lcl_core::{tree_speedup, SpeedupOptions};
use lcl_faults::{Budget, FaultPlan, NodeFault};
use lcl_graph::ShardMap;
use lcl_local::SyncAlgorithm;
use lcl_problems::anti_matching;
use lcl_service::protocol::Scalar;
use lcl_shard::step::round_number;
use lcl_shard::ShardStepper;

use crate::spec::{AlgSpec, GuardedFlood};
use crate::wire::{
    decode_batches, decode_flags, encode_batches, encode_events, encode_faults, encode_labels,
    open_line, push_bool_field, push_num_field, push_text_field, read_fields, want_num, want_str,
    write_line, InitCmd, WireMsg,
};

/// Drains a fault buffer into its wire form.
fn take_faults(buf: &mut Vec<NodeFault>) -> String {
    encode_faults(&std::mem::take(buf))
}

/// Serves one shard over an established connection, starting from the
/// already-parsed `init` command. Returns when the supervisor sends
/// `output` (clean shutdown) or closes the socket (the worker is being
/// discarded); `Err` carries a protocol violation the binary reports
/// on stderr before dying nonzero.
pub fn serve_shard(
    cmd: &InitCmd,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
) -> Result<(), String> {
    match cmd.alg {
        AlgSpec::GuardedFlood { k } => run_shard(&GuardedFlood { k }, cmd, reader, writer),
        AlgSpec::AntiMatchingE1 { delta } => {
            let outcome = tree_speedup(&anti_matching(delta), SpeedupOptions::default());
            run_shard(&outcome.algorithm(), cmd, reader, writer)
        }
    }
}

/// The generic serve loop for a concrete algorithm.
fn run_shard<A>(
    alg: &A,
    cmd: &InitCmd,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
) -> Result<(), String>
where
    A: SyncAlgorithm,
    A::Msg: WireMsg,
{
    let graph = cmd.graph.build();
    let map = ShardMap::new(graph.node_count(), cmd.shards);
    if cmd.shard >= map.num_shards() {
        return Err(format!(
            "init addresses shard {} of a {}-shard partition",
            cmd.shard,
            map.num_shards()
        ));
    }
    let owned = map.range(cmd.shard).len();
    if cmd.ids.len() != owned {
        return Err(format!(
            "init shipped {} ids for shard {}'s {owned} owned nodes",
            cmd.ids.len(),
            cmd.shard
        ));
    }
    let input = cmd.input.build(&graph);
    let plan = FaultPlan::parse(&cmd.plan_text).map_err(|e| format!("init plan: {e}"))?;
    // Deadlines and `max_rounds` are the supervisor's concern, enforced
    // from outside, so the worker's budget is unlimited.
    let mut r: ShardStepper<A> =
        ShardStepper::new(cmd.shard, &map, &graph, &plan, &Budget::unlimited());
    r.init_nodes(alg, &graph, &input, &cmd.ids, cmd.n);

    let mut ready = open_line("ready");
    push_text_field(&mut ready, "alg_name", alg.name());
    push_text_field(&mut ready, "f_init", &take_faults(&mut r.faults.init));
    push_text_field(&mut ready, "f_recv", &take_faults(&mut r.faults.recv));
    ready.push('}');
    write_line(writer, &ready).map_err(|e| e.to_string())?;

    loop {
        let fields: Vec<(String, Scalar)> = match read_fields(reader) {
            Ok(fields) => fields,
            // EOF: the supervisor dropped us (run over, or we are a
            // stale pre-kill connection). Exit cleanly either way.
            Err(e) if e == "peer closed the connection" => return Ok(()),
            Err(e) => return Err(e),
        };
        let op = want_str(&fields, "op")?;
        let mut reply = match op.as_str() {
            "begin" => {
                let round = round_number(want_num(&fields, "round")?, "round")?;
                r.begin_round(alg, round);
                let mut reply = open_line("begun");
                push_bool_field(&mut reply, "all_done", r.all_done());
                reply
            }
            "compute" => {
                let crashed = decode_flags(&want_str(&fields, "crashed")?)?;
                let round = r.check_superstep(want_num(&fields, "round")?, &crashed)?;
                if cmd.hang_at == Some(round) {
                    // Test hook: this worker is scheduled to wedge here.
                    // A respawned replica replays into the same sleep,
                    // which is what drives the respawn-storm test.
                    loop {
                        std::thread::sleep(std::time::Duration::from_secs(3600));
                    }
                }
                let halos = r.compute(alg, &graph, round, &crashed);
                let c = r.counters;
                let mut reply = open_line("computed");
                push_num_field(&mut reply, "round_messages", c.round_messages);
                push_text_field(&mut reply, "halos", &encode_batches(&halos));
                push_text_field(&mut reply, "f_crash", &take_faults(&mut r.faults.crash));
                push_text_field(&mut reply, "f_send", &take_faults(&mut r.faults.send));
                push_num_field(&mut reply, "crashes", c.crashes);
                push_num_field(&mut reply, "rebuilds", c.rebuilds);
                push_num_field(&mut reply, "checkpoints", c.checkpoints);
                reply
            }
            "deliver" => {
                let crashed = decode_flags(&want_str(&fields, "crashed")?)?;
                let round = r.check_superstep(want_num(&fields, "round")?, &crashed)?;
                let batches = decode_batches::<A::Msg>(&want_str(&fields, "halos")?)?;
                r.accept_halos(batches)?;
                r.deliver(alg, &graph, round, &crashed);
                let c = r.counters;
                let mut reply = open_line("stepped");
                push_text_field(&mut reply, "f_recv", &take_faults(&mut r.faults.recv));
                push_text_field(&mut reply, "snapshot", &r.snapshot_meta(round).to_json());
                push_num_field(&mut reply, "supersteps", c.supersteps);
                push_num_field(&mut reply, "halo_messages", c.halo_messages);
                push_num_field(&mut reply, "halo_bytes", c.halo_bytes);
                reply
            }
            "finish" => {
                let round = round_number(want_num(&fields, "round")?, "round")?;
                let effective = round_number(want_num(&fields, "effective")?, "effective")?;
                r.no_halt(alg, effective, round);
                let mut reply = open_line("finished");
                push_text_field(&mut reply, "f_recv", &take_faults(&mut r.faults.recv));
                reply
            }
            "output" => {
                let rounds = round_number(want_num(&fields, "rounds")?, "rounds")?;
                r.output_nodes(alg, &graph, rounds);
                let mut reply = open_line("outputs");
                push_text_field(&mut reply, "labels", &encode_labels(&[r.take_outputs()]));
                push_text_field(&mut reply, "f_out", &take_faults(&mut r.faults.out));
                push_text_field(&mut reply, "f_recv", &take_faults(&mut r.faults.recv));
                push_text_field(
                    &mut reply,
                    "events",
                    &encode_events(&r.domain().events().events()),
                );
                reply.push('}');
                return write_line(writer, &reply).map_err(|e| e.to_string());
            }
            other => return Err(format!("unknown command op {other:?}")),
        };
        reply.push('}');
        write_line(writer, &reply).map_err(|e| e.to_string())?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl::OutLabel;
    use lcl_rng::SmallRng;
    use lcl_service::protocol::parse_flat_object;
    use std::io::BufReader;

    /// Feeds `commands` to a worker serving `cmd` and returns how the
    /// serve loop ended plus every reply it wrote.
    fn pipe(commands: &[String], cmd: &InitCmd) -> (Result<(), String>, Vec<String>) {
        let script = commands.join("\n") + "\n";
        let mut reader = BufReader::new(script.as_bytes());
        let mut out: Vec<u8> = Vec::new();
        let served = serve_shard(cmd, &mut reader, &mut out);
        let replies = String::from_utf8(out)
            .expect("why: replies are JSON text")
            .lines()
            .map(str::to_string)
            .collect();
        (served, replies)
    }

    fn pipe_run(commands: &[String], cmd: &InitCmd) -> Vec<Vec<(String, Scalar)>> {
        let (served, replies) = pipe(commands, cmd);
        served.expect("why: a scripted clean run serves cleanly");
        replies
            .iter()
            .map(|l| parse_flat_object(l).expect("why: every reply is a flat object"))
            .collect()
    }

    /// Shard 1 of an 8-node path cut in two: it owns nodes 4..8 and
    /// takes one halo entry per superstep from shard 0 (node 3's port 1).
    fn half_path() -> InitCmd {
        InitCmd {
            graph: crate::spec::GraphSpec::Path { n: 8 },
            alg: AlgSpec::GuardedFlood { k: 3 },
            input: crate::spec::InputSpec::Uniform,
            ids: vec![3, 9, 1, 7],
            n: 8,
            shards: 2,
            shard: 1,
            plan_text: FaultPlan::new(0).to_text(),
            hang_at: None,
        }
    }

    fn superstep_lines(compute: &str, deliver: &str) -> Vec<String> {
        vec![
            "{\"op\":\"begin\",\"round\":0}".to_string(),
            compute.to_string(),
            deliver.to_string(),
            "{\"op\":\"begin\",\"round\":1}".to_string(),
        ]
    }

    const COMPUTE: &str = "{\"op\":\"compute\",\"round\":0,\"crashed\":\"00\"}";
    const DELIVER: &str = "{\"op\":\"deliver\",\"round\":0,\"crashed\":\"00\",\"halos\":\"0>11\"}";

    /// Malformed superstep commands are typed errors, not panics or
    /// truncations: short crashed flags, halo batches from unknown peers,
    /// of the wrong length or repeated, rounds above `u32::MAX`, a flag
    /// the plan does not schedule, and a delivery with nothing computed.
    #[test]
    fn malformed_superstep_commands_are_typed_errors() {
        let (served, replies) = pipe(&superstep_lines(COMPUTE, DELIVER), &half_path());
        assert_eq!(served, Ok(()));
        assert_eq!(replies.len(), 5, "ready, begun, computed, stepped, begun");
        let cases = [
            (
                "{\"op\":\"compute\",\"round\":0,\"crashed\":\"0\"}",
                DELIVER,
                "1 crashed flags for a 2-shard partition",
            ),
            (
                COMPUTE,
                "{\"op\":\"deliver\",\"round\":0,\"crashed\":\"0\",\"halos\":\"0>11\"}",
                "1 crashed flags for a 2-shard partition",
            ),
            (
                COMPUTE,
                "{\"op\":\"deliver\",\"round\":0,\"crashed\":\"00\",\"halos\":\"5>11\"}",
                "halo batch from shard 5, which routes nothing to shard 1",
            ),
            (
                COMPUTE,
                "{\"op\":\"deliver\",\"round\":0,\"crashed\":\"00\",\"halos\":\"1>11\"}",
                "halo batch from shard 1, which routes nothing to shard 1",
            ),
            (
                COMPUTE,
                "{\"op\":\"deliver\",\"round\":0,\"crashed\":\"00\",\"halos\":\"18446744073709551615>11\"}",
                "halo batch from shard 18446744073709551615, which routes nothing to shard 1",
            ),
            (
                COMPUTE,
                "{\"op\":\"deliver\",\"round\":0,\"crashed\":\"00\",\"halos\":\"0>\"}",
                "halo batch from shard 0 has 0 entries, 1 routed",
            ),
            (
                COMPUTE,
                "{\"op\":\"deliver\",\"round\":0,\"crashed\":\"00\",\"halos\":\"0>11|0>11\"}",
                "two halo batches from shard 0",
            ),
            (
                "{\"op\":\"compute\",\"round\":4294967296,\"crashed\":\"00\"}",
                DELIVER,
                "round 4294967296 exceeds u32::MAX",
            ),
            (
                "{\"op\":\"compute\",\"round\":0,\"crashed\":\"01\"}",
                DELIVER,
                "crashed flags disagree with shard 1's plan at superstep 0",
            ),
        ];
        for (compute, deliver, want) in cases {
            let (served, _) = pipe(&superstep_lines(compute, deliver), &half_path());
            assert_eq!(served, Err(want.to_string()), "{compute} / {deliver}");
        }
        let mut twice = superstep_lines(COMPUTE, DELIVER);
        twice.insert(3, DELIVER.to_string());
        let (served, _) = pipe(&twice, &half_path());
        assert_eq!(
            served,
            Err("halos for shard 1 with no computed superstep to deliver".to_string())
        );
        let finish = "{\"op\":\"finish\",\"round\":0,\"effective\":4294967296}";
        let (served, _) = pipe(&[finish.to_string()], &half_path());
        assert_eq!(
            served,
            Err("effective 4294967296 exceeds u32::MAX".to_string())
        );
    }

    /// 1k seeded byte-level mutations of a valid `compute` or `deliver`
    /// line. The worker never panics: each mutated script is served to
    /// its end or rejected with an `Err`, and a rejected line gets no
    /// reply.
    #[test]
    fn superstep_commands_survive_a_thousand_seeded_mutations() {
        let (mut accepted, mut rejected) = (0u32, 0u32);
        for seed in 0..1000u64 {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_f00d_cafe_0017);
            let alphabet = b"0123456789,:\"{}>|_-x";
            let (compute, deliver) = if seed % 2 == 0 {
                (
                    crate::wire::tests::mutate(COMPUTE, &mut rng, alphabet),
                    DELIVER.to_string(),
                )
            } else {
                (
                    COMPUTE.to_string(),
                    crate::wire::tests::mutate(DELIVER, &mut rng, alphabet),
                )
            };
            let (served, replies) = pipe(&superstep_lines(&compute, &deliver), &half_path());
            match served {
                Ok(()) => accepted += 1,
                Err(_) => {
                    rejected += 1;
                    assert!(
                        replies.len() < 5,
                        "seed {seed}: a rejected line got a reply"
                    );
                }
            }
        }
        assert!(accepted > 0, "some light mutations should still serve");
        assert!(rejected > 0, "heavy mutations should be rejected");
    }

    /// A single-shard worker stepped over an in-memory pipe produces
    /// the same labels as the in-process executor.
    #[test]
    fn scripted_single_shard_run_matches_the_local_executor() {
        let graph = crate::spec::GraphSpec::Path { n: 5 };
        let ids = vec![3u64, 9, 1, 7, 5];
        let cmd = InitCmd {
            graph: graph.clone(),
            alg: AlgSpec::GuardedFlood { k: 4 },
            input: crate::spec::InputSpec::Uniform,
            ids: ids.clone(),
            n: 5,
            shards: 1,
            shard: 0,
            plan_text: FaultPlan::new(0).to_text(),
            hang_at: None,
        };
        let mut commands = Vec::new();
        for round in 0..4u32 {
            commands.push(format!("{{\"op\":\"begin\",\"round\":{round}}}"));
            commands.push(format!(
                "{{\"op\":\"compute\",\"round\":{round},\"crashed\":\"0\"}}"
            ));
            commands.push(format!(
                "{{\"op\":\"deliver\",\"round\":{round},\"crashed\":\"0\",\"halos\":\"\"}}"
            ));
        }
        commands.push("{\"op\":\"begin\",\"round\":4}".to_string());
        commands.push("{\"op\":\"output\",\"rounds\":4}".to_string());
        let replies = pipe_run(&commands, &cmd);
        assert_eq!(want_str(&replies[0], "op").unwrap(), "ready");
        assert_eq!(want_str(&replies[0], "alg_name").unwrap(), "guarded-flood");
        // Reply 13 is the final `begun` with all_done=true.
        assert!(crate::wire::want_bool(&replies[13], "all_done").unwrap());
        let outputs = replies.last().expect("why: the script ends with output");
        assert_eq!(want_str(outputs, "op").unwrap(), "outputs");
        let labels = crate::wire::decode_labels(&want_str(outputs, "labels").unwrap()).unwrap();
        let g = graph.build();
        let input = lcl::uniform_input(&g);
        let run = lcl_local::simulate_sync_with(
            &GuardedFlood { k: 4 },
            &g,
            &input,
            &ids,
            None,
            10,
            lcl_faults::RunOptions::new(),
        );
        // One flat list over the owned half-edges, in CSR order.
        let expect: Vec<OutLabel> = g
            .half_edges()
            .map(|h| run.outcome.outcome.output.get(h))
            .collect();
        assert_eq!(labels, expect);
    }

    /// A worker handed the whole id assignment instead of its owned
    /// range refuses to serve, with an error instead of a panic.
    #[test]
    fn worker_rejects_an_id_list_of_the_wrong_length() {
        let cmd = InitCmd {
            graph: crate::spec::GraphSpec::Path { n: 5 },
            alg: AlgSpec::GuardedFlood { k: 2 },
            input: crate::spec::InputSpec::Uniform,
            ids: vec![3, 9, 1, 7, 5],
            n: 5,
            shards: 2,
            shard: 1,
            plan_text: FaultPlan::new(0).to_text(),
            hang_at: None,
        };
        let mut out: Vec<u8> = Vec::new();
        let err = serve_shard(&cmd, &mut BufReader::new(&b""[..]), &mut out).unwrap_err();
        assert_eq!(err, "init shipped 5 ids for shard 1's 2 owned nodes");
        assert!(out.is_empty(), "no ready reply before the check");

        let stray = InitCmd {
            ids: vec![7, 5],
            shard: 2,
            ..cmd
        };
        let err = serve_shard(&stray, &mut BufReader::new(&b""[..]), &mut out).unwrap_err();
        assert_eq!(err, "init addresses shard 2 of a 2-shard partition");
    }
}
