(* Conservative parallel engine (Engine.Shard): determinism across domain
   counts, and the lookahead-safety invariant the protocol rests on.

   The load-bearing property throughout: outcomes are a function of the
   shard *partition*, never of the *worker count*. Every test here builds
   the same sharded scenario several times, runs it under 1 / 2 / 4 / 8
   domains, and compares complete digests — virtual end time, payload
   checksums, per-segment frame counters, per-shard execution counts. *)

module Sim = Engine.Sim
module Shard = Engine.Shard
module Rng = Engine.Rng
module Bb = Engine.Bytebuf
module Group = Collectives.Group
module Gridgen = Scenario.Gridgen
module Segment = Simnet.Segment

let domain_counts = [ 1; 2; 4; 8 ]

(* ---------- direct Shard runtime: cross-shard ping-pong ---------- *)

(* Two shards, one frame bouncing [hops] times; every execution logs
   (shard, virtual time). The digest must not depend on the domain count,
   and each hop must land exactly [latency] after the previous. *)
let pingpong ~domains ~hops ~latency =
  let sims = [| Sim.create ~seed:1 (); Sim.create ~seed:2 () |] in
  let lookahead = [| [| max_int; latency |]; [| latency; max_int |] |] in
  let t = Shard.create ~lookahead sims in
  let log = Array.init 2 (fun _ -> ref []) in
  let rec hop sh i () =
    let now = Sim.now (Shard.sim t sh) in
    log.(sh) := now :: !(log.(sh));
    if i < hops then
      Shard.post t ~src:sh ~dst:(1 - sh) ~ts:(now + latency)
        (hop (1 - sh) (i + 1))
  in
  Sim.at sims.(0) 0 (hop 0 1);
  Shard.run ~domains t;
  (Array.map (fun l -> List.rev !l) log, Shard.executed t 0 + Shard.executed t 1)

let test_pingpong () =
  let reference = ref None in
  List.iter
    (fun domains ->
       let log, executed = pingpong ~domains ~hops:64 ~latency:7 in
       Tutil.check_int
         (Printf.sprintf "all hops executed (domains=%d)" domains)
         64 executed;
       (* Shard 0 runs hops 2,4,... at 7,21,...; timestamps must be the
          arithmetic sequence the lookahead dictates. *)
       List.iteri
         (fun k ts ->
            Tutil.check_int "hop timestamps follow latency" ((2 * k + 1) * 7)
              ts)
         log.(1);
       match !reference with
       | None -> reference := Some log
       | Some r ->
         Alcotest.(check (array (list int)))
           (Printf.sprintf "byte-identical log (domains=%d)" domains)
           r log)
    domain_counts

(* ---------- QCheck: lookahead-safety model ---------- *)

(* A random event tree over a random shard count: each node executes on
   its shard at a pre-computed timestamp and posts its children
   cross-shard at [ts + lookahead + extra]. Safety means no shard ever
   has to run an event before an in-flight frame with a smaller
   timestamp — operationally: every execution happens exactly at its
   planned timestamp (the runtime's [advance_to] raises if a frame
   arrives in a shard's past, and per-shard time never goes backward). *)
type ev = { e_sh : int; e_ts : int; e_kids : ev list }

let rec gen_ev rng ~nshards ~look ~sh ~ts ~hops =
  let kids =
    if hops = 0 then []
    else
      List.init (Rng.int rng 3) (fun _ ->
          let dst = Rng.int rng nshards in
          let extra = Rng.int rng 25 in
          gen_ev rng ~nshards ~look ~sh:dst ~ts:(ts + look + extra)
            ~hops:(hops - 1))
  in
  { e_sh = sh; e_ts = ts; e_kids = kids }

let run_model ~seed ~nshards ~look ~domains =
  let rng = Rng.create seed in
  let roots =
    List.init (2 + Rng.int rng 4) (fun _ ->
        gen_ev rng ~nshards ~look ~sh:(Rng.int rng nshards)
          ~ts:(Rng.int rng 50) ~hops:3)
  in
  let sims = Array.init nshards (fun i -> Sim.create ~seed:(100 + i) ()) in
  let lookahead = Array.make_matrix nshards nshards look in
  let t = Shard.create ~lookahead sims in
  (* Per-shard logs are appended only by that shard's own executions —
     owner-shard discipline, no locking needed. *)
  let logs = Array.init nshards (fun _ -> ref []) in
  let rec fire ev () =
    let now = Sim.now (Shard.sim t ev.e_sh) in
    logs.(ev.e_sh) := (ev.e_ts, now) :: !(logs.(ev.e_sh));
    List.iter
      (fun k -> Shard.post t ~src:ev.e_sh ~dst:k.e_sh ~ts:k.e_ts (fire k))
      ev.e_kids
  in
  List.iter (fun r -> Sim.at sims.(r.e_sh) r.e_ts (fire r)) roots;
  Shard.run ~domains t;
  Array.map (fun l -> List.rev !l) logs

let prop_lookahead_safety =
  QCheck.Test.make ~count:60 ~name:"shard model: planned = executed, no rewind"
    QCheck.(triple (int_bound 10_000) (int_range 2 4) (int_range 1 20))
    (fun (seed, nshards, look) ->
       let one = run_model ~seed ~nshards ~look ~domains:1 in
       let many = run_model ~seed ~nshards ~look ~domains:nshards in
       Array.iter
         (fun log ->
            ignore
              (List.fold_left
                 (fun prev (planned, actual) ->
                    if planned <> actual then
                      QCheck.Test.fail_reportf
                        "event planned for %d ran at %d" planned actual;
                    if actual < prev then
                      QCheck.Test.fail_reportf
                        "shard time went backward: %d after %d" actual prev;
                    actual)
                 min_int log))
         one;
       if one <> many then
         QCheck.Test.fail_reportf
           "logs differ between 1 and %d domains (seed %d)" nshards seed;
       true)

(* ---------- sharded grid: collectives determinism matrix ---------- *)

let pattern n seed =
  let b = Bb.create n in
  Bb.fill_pattern b ~seed;
  b

(* A scaled-down E13/E16 scenario: 4 SAN islands (one shard each) on a
   shared WAN, every rank running allreduce + barrier + bcast through the
   multilevel strategy, so SAN, loopback and cross-shard WAN paths all
   carry traffic. Returns a digest of everything observable. *)
let collective_digest ~seed ~domains =
  Padico.reset ();
  let g =
    Gridgen.generate ~seed ~sharded:true ~clusters:4 ~nodes_per_cluster:4 ()
  in
  let nodes = Array.of_list g.Gridgen.nodes in
  let groups = Group.create g.Gridgen.grid ~name:"shard-det" g.Gridgen.nodes in
  let sum = Atomic.make 0 in
  let hs =
    Array.mapi
      (fun r node ->
         Padico.spawn g.Gridgen.grid node
           ~name:(Printf.sprintf "det-%d" r)
           (fun () ->
              let a =
                Group.allreduce groups.(r) ~op:Group.Bxor
                  (pattern 512 (r + 1))
              in
              ignore (Atomic.fetch_and_add sum (Bb.checksum a));
              Group.barrier groups.(r);
              let b =
                Group.bcast groups.(r) ~root:0
                  (if r = 0 then pattern 256 7 else Bb.create 0)
              in
              ignore (Atomic.fetch_and_add sum (Bb.checksum b))))
      nodes
  in
  Padico.run g.Gridgen.grid ~until:(Engine.Time.sec 3600) ~domains;
  Array.iter Tutil.assert_done hs;
  let runtime = Option.get (Simnet.Net.shard_runtime (Padico.net g.Gridgen.grid)) in
  let per_shard =
    List.init (Shard.shard_count runtime) (fun i ->
        (Shard.executed runtime i, Shard.posted runtime i,
         Sim.now (Shard.sim runtime i)))
  in
  let segs =
    List.map
      (fun s ->
         ( Segment.name s, Segment.frames_sent s, Segment.frames_delivered s,
           Segment.frames_lost s, Segment.bytes_sent s ))
      (Simnet.Net.segments (Padico.net g.Gridgen.grid))
  in
  ( Padico.now g.Gridgen.grid, Atomic.get sum,
    Group.wan_messages groups.(0), Group.wan_bytes groups.(0),
    per_shard, segs )

let test_collective_determinism () =
  List.iter
    (fun seed ->
       let reference = collective_digest ~seed ~domains:1 in
       let now1, sum1, _, _, _, _ = reference in
       Tutil.check_bool "time advanced" true (now1 > 0);
       Tutil.check_bool "payload delivered" true (sum1 <> 0);
       List.iter
         (fun domains ->
            let d = collective_digest ~seed ~domains in
            if d <> reference then
              Alcotest.failf
                "collective digest differs: seed %d, %d domains vs 1" seed
                domains)
         (List.tl domain_counts))
    [ 42; 7; 1234 ]

(* ---------- sharded grid: edge-gateway determinism ---------- *)

(* The E15 topology under per-node shards: TCP handshakes, request bytes
   and acks all cross shards. Same digest law. *)
let edge_digest ~domains =
  Padico.reset ();
  let e =
    Gridgen.edge ~seed:11 ~sharded:true ~shards:3 ~client_nodes:5
      ~clients:40 ~churn:0.25 ~tail:1.3 ()
  in
  let st = Gridgen.run_edge ~until:(Engine.Time.sec 60) ~domains e in
  ( st.Gridgen.es_established, st.Gridgen.es_requests,
    st.Gridgen.es_reconnects, st.Gridgen.es_aborted, st.Gridgen.es_resets,
    st.Gridgen.es_served,
    Segment.frames_sent e.Gridgen.e_wan,
    Segment.frames_delivered e.Gridgen.e_wan,
    Segment.bytes_sent e.Gridgen.e_wan,
    Padico.now e.Gridgen.e_grid )

let test_edge_determinism () =
  let reference = edge_digest ~domains:1 in
  let est, req, _, _, _, served, _, _, _, _ = reference in
  Tutil.check_bool "connections established" true (est > 0);
  Tutil.check_bool "requests acked" true (req > 0);
  Tutil.check_int "every request served" req served;
  List.iter
    (fun domains ->
       let d = edge_digest ~domains in
       if d <> reference then
         Alcotest.failf "edge digest differs: %d domains vs 1" domains)
    (List.tl domain_counts)

(* ---------- quiescence ledger under the racy interleaving ---------- *)

(* The consumer's round snapshots its inbound rings, the producer posts a
   frame and goes idle, then the consumer drains the frame it did not see
   in its snapshot. Replayed step by step on one domain: the ledger must
   keep counting the frame while it waits on the consumer's stage, so an
   idle worker cannot declare quiescence before the frame executes. *)
let test_ledger_race () =
  let latency = 7 in
  let sims = [| Sim.create ~seed:1 (); Sim.create ~seed:2 () |] in
  let lookahead = [| [| max_int; latency |]; [| latency; max_int |] |] in
  let t = Shard.create ~lookahead sims in
  let ran = ref false in
  Shard.post t ~src:0 ~dst:1 ~ts:latency (fun () -> ran := true);
  Tutil.check_int "frame in flight" 1 (Shard.Step.work t);
  Tutil.check_int "consumer drains the frame" 1 (Shard.Step.drain t 1);
  Alcotest.(check bool) "ledger still counts the staged frame" true
    (Shard.Step.work t > 0);
  Alcotest.(check bool) "no quiescence while the frame is pending" false
    (Shard.Step.idle_check t);
  (* The producer's next round publishes a bound that lets the consumer's
     horizon clear the frame. *)
  ignore (Shard.Step.round t 0 ~until:max_int);
  Alcotest.(check bool) "consumer round makes progress" true
    (Shard.Step.round t 1 ~until:max_int);
  Alcotest.(check bool) "frame executed" true !ran;
  Tutil.check_int "ledger drained" 0 (Shard.Step.work t);
  Alcotest.(check bool) "quiescence once the frame ran" true
    (Shard.Step.idle_check t)

(* ---------- guard rails ---------- *)

let test_validation () =
  (* Cross-shard segments must have positive latency. *)
  let net = Simnet.Net.create ~shards:2 () in
  let a = Simnet.Net.add_node ~shard:0 net "a" in
  let b = Simnet.Net.add_node ~shard:1 net "b" in
  let zero_lat =
    { Simnet.Presets.myrinet2000 with Simnet.Linkmodel.latency_ns = 0 }
  in
  ignore (Simnet.Net.add_segment net zero_lat [ a; b ]);
  (match Simnet.Net.run net with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "zero-latency cross-shard segment accepted");
  (* Classic grids reject shard placement and multi-domain runs. *)
  let net = Simnet.Net.create () in
  (match Simnet.Net.add_node ~shard:1 net "x" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "classic grid accepted ~shard");
  ignore (Simnet.Net.add_node net "y");
  (match Simnet.Net.run ~domains:4 net with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "classic grid accepted ~domains");
  (* Host backend cannot shard. *)
  match Padico.create ~backend:Padico.Host ~shards:2 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Host backend accepted ~shards"

let () =
  Alcotest.run "shard"
    [ ("runtime",
       [ Alcotest.test_case "cross-shard ping-pong" `Quick test_pingpong;
         Alcotest.test_case "quiescence ledger: drain after a late post"
           `Quick test_ledger_race;
         Alcotest.test_case "validation" `Quick test_validation ]);
      Tutil.qsuite "model" [ prop_lookahead_safety ];
      ("grid",
       [ Alcotest.test_case "collectives determinism matrix" `Quick
           test_collective_determinism;
         Alcotest.test_case "edge determinism matrix" `Quick
           test_edge_determinism ]) ]
