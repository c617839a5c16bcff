module Bb = Engine.Bytebuf
module Sim = Engine.Sim
module Time = Engine.Time
module Clock = Engine.Clock
module Proc = Engine.Proc
module Node = Simnet.Node
module Group = Collectives.Group

let byte_buf len v =
  let b = Bb.create len in
  for i = 0 to len - 1 do
    Bb.set_u8 b i v
  done;
  b

let check_buf_all name expected b =
  for i = 0 to Bb.length b - 1 do
    Tutil.check_int (Printf.sprintf "%s[%d]" name i) expected (Bb.get_u8 b i)
  done

(* ---------- detector unit behaviour ---------- *)

let test_accrual () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let det = Detect.create ~name:"t" a in
  Detect.set_peers det [ 1; 2 ];
  let confirms = ref [] in
  let suspects = ref [] in
  let hbs = ref 0 in
  Detect.start det
    ~send_hb:(fun _ -> incr hbs)
    ~on_suspect:(fun p -> suspects := p :: !suspects)
    ~on_confirm:(fun p -> confirms := p :: !confirms)
    ();
  (* keep peer 2 chatty so only the silent peer 1 accrues suspicion *)
  let clock = Node.clock a in
  let rec chat () =
    Detect.heard det ~peer:2;
    Clock.after clock (Time.us 800) chat
  in
  Clock.after clock (Time.us 800) chat;
  (* a never-heard peer carries the bootstrap grace of [window] intervals:
     confirmation needs ~37 ms of silence, not ~9 *)
  Simnet.Net.run net ~until:(Time.ms 80);
  Detect.stop det;
  Tutil.check_bool "peer 1 suspected" true (List.mem 1 !suspects);
  Tutil.check_bool "peer 1 confirmed" true (List.mem 1 !confirms);
  Tutil.check_bool "peer 2 never confirmed" false (List.mem 2 !confirms);
  Tutil.check_bool "peer 1 verdict" true (Detect.verdict det ~peer:1 = Confirmed);
  Tutil.check_bool "peer 2 verdict" true (Detect.verdict det ~peer:2 = Alive);
  Tutil.check_bool "confirmed once" true
    (List.length (List.filter (fun p -> p = 1) !confirms) = 1);
  Tutil.check_bool "heartbeats were requested" true (!hbs > 0);
  Tutil.check_int "stats agree" 1 (Detect.stats det).confirms

let test_refute () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let det = Detect.create ~name:"t" a in
  Detect.set_peers det [ 5 ];
  let refutes = ref 0 in
  Detect.start det
    ~send_hb:(fun _ -> ())
    ~on_refute:(fun _ -> incr refutes)
    ~on_confirm:(fun _ -> ())
    ();
  let clock = Node.clock a in
  (* traffic for 8 ms, a 4 ms gap (long enough to suspect, not to
     confirm), then traffic again *)
  for i = 1 to 10 do
    Clock.after clock (i * Time.us 800) (fun () -> Detect.heard det ~peer:5)
  done;
  Clock.after clock (Time.ms 12) (fun () -> Detect.heard det ~peer:5);
  Simnet.Net.run net ~until:(Time.ms 14);
  Tutil.check_bool "suspicion was refuted" true (!refutes >= 1);
  Tutil.check_bool "peer alive again" true (Detect.verdict det ~peer:5 = Alive);
  Tutil.check_int "never confirmed" 0 (Detect.stats det).confirms;
  Detect.stop det;
  Tutil.check_bool "stopped" false (Detect.running det)

let test_link_dead () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let det = Detect.create ~name:"t" a in
  Detect.set_peers det [ 3 ];
  let confirms = ref [] in
  Detect.start det
    ~send_hb:(fun _ -> ())
    ~on_confirm:(fun p -> confirms := p :: !confirms)
    ();
  Detect.link_dead det ~peer:3;
  Tutil.check_bool "immediate confirm" true (!confirms = [ 3 ]);
  Tutil.check_bool "phi saturates" true (Detect.phi det ~peer:3 = infinity);
  (* confirmation is sticky: traffic does not resurrect *)
  Detect.heard det ~peer:3;
  Tutil.check_bool "sticky" true (Detect.verdict det ~peer:3 = Confirmed);
  Detect.stop det

(* ---------- healing groups: no crash, overhead path only ---------- *)

let test_heal_noop strategy () =
  let grid, a1, a2, b1, b2 = Tutil.two_clusters ~wan:Simnet.Presets.vthd () in
  let nodes = [ a1; a2; b1; b2 ] in
  let members =
    Group.create ~strategy ~deadline_ns:(Time.ms 400)
      ~heal:Detect.default_config grid ~name:"healnoop" nodes
  in
  let sim = Padico.sim grid in
  let handles =
    List.mapi
      (fun r node ->
         Padico.spawn grid node ~name:(Printf.sprintf "rank%d" r) (fun () ->
             let g = members.(r) in
             Group.barrier g;
             let b = Group.bcast g ~root:1 (byte_buf 16 9) in
             check_buf_all "bcast" 9 b;
             (match Group.reduce g ~root:2 ~op:Group.Sum (byte_buf 4 (10 + r)) with
              | Some res when r = 2 -> check_buf_all "reduce" 46 res
              | Some _ -> Alcotest.fail "non-root got a reduce result"
              | None -> Tutil.check_bool "root result" true (r <> 2));
             let ar = Group.allreduce g ~op:Group.Sum (byte_buf 4 (10 + r)) in
             check_buf_all "allreduce" 46 ar;
             (match Group.gather g ~root:0 (byte_buf 4 (20 + r)) with
              | Some arr ->
                Tutil.check_bool "gather at root" true (r = 0);
                Array.iteri
                  (fun i p -> check_buf_all "gather entry" (20 + i) p)
                  arr
              | None -> Tutil.check_bool "gather elsewhere" true (r <> 0));
             let ps = Array.init 4 (fun i -> byte_buf 4 (50 + i)) in
             let mine = Group.scatter g ~root:3 ps in
             check_buf_all "scatter" (50 + r) mine;
             Tutil.check_int "no evictions" 0 (Group.evictions g);
             Tutil.check_int "no restarts" 0 (Group.restarts g);
             Tutil.check_int "epoch 0" 0 (Group.epoch g)))
      nodes
  in
  ignore sim;
  Tutil.run_grid grid ~until:(Time.ms 300);
  Array.iter Group.retire members;
  List.iter Tutil.assert_done handles

(* ---------- healing groups: crash, eviction, retry ---------- *)

(* Build a healing 4-rank group over two 2-node SAN clusters joined by a
   4 ms WAN. Every rank runs a warm-up barrier; [victim] is crashed at
   20 ms (idle); survivors start [body] at 21 ms — before the phi-accrual
   confirmation (~25 ms) can land, so the operation stalls on the dead
   member and must be evicted and retried mid-flight. *)
let heal_scenario ?seed ?(strategy = Group.Multilevel) ~victim body =
  let grid, a1, a2, b1, b2 =
    Tutil.two_clusters ?seed ~wan:Simnet.Presets.vthd ()
  in
  let nodes = [ a1; a2; b1; b2 ] in
  let members =
    Group.create ~strategy ~deadline_ns:(Time.ms 400)
      ~heal:Detect.default_config grid ~name:"heal" nodes
  in
  let sim = Padico.sim grid in
  Sim.after sim (Time.ms 20) (fun () ->
      Node.set_up (List.nth nodes victim) false);
  let handles =
    List.mapi
      (fun r node ->
         Padico.spawn grid node ~name:(Printf.sprintf "rank%d" r) (fun () ->
             let g = members.(r) in
             Group.barrier g;
             if r <> victim then begin
               let dt = Time.ms 21 - Sim.now sim in
               if dt > 0 then Proc.sleep sim dt;
               body r g
             end))
      nodes
  in
  Tutil.run_grid grid ~until:(Time.ms 390);
  Array.iter Group.retire members;
  List.iteri (fun r h -> if r <> victim then Tutil.assert_done h) handles;
  members

let live_sum victim =
  let s = ref 0 in
  for i = 0 to 3 do
    if i <> victim then s := !s + (10 + i)
  done;
  !s land 0xff

let test_evict_nonproxy () =
  let victim = 3 in
  let members =
    heal_scenario ~victim (fun r g ->
        let res = Group.allreduce g ~op:Group.Sum (byte_buf 8 (10 + r)) in
        check_buf_all "allreduce minus dead" (live_sum victim) res;
        (* the group stays usable after the eviction *)
        let b = Group.bcast g ~root:1 (byte_buf 8 3) in
        check_buf_all "post-eviction bcast" 3 b)
  in
  Tutil.check_int "epoch" 1 (Group.epoch members.(0));
  Tutil.check_bool "dead ranks" true (Group.dead_ranks members.(0) = [ 3 ]);
  Tutil.check_int "live count" 3 (Group.live_count members.(0));
  Tutil.check_bool "the stalled op was retried" true
    (Group.restarts members.(0) >= 1);
  Tutil.check_bool "survivors not poisoned" true
    (Group.poisoned members.(0) = None && Group.poisoned members.(1) = None
     && Group.poisoned members.(2) = None)

let test_evict_proxy () =
  (* rank 2 is cluster 1's Netdb leader: its death must re-elect rank 3 as
     the cluster proxy and still complete the collective *)
  let victim = 2 in
  let members =
    heal_scenario ~victim (fun r g ->
        let res = Group.allreduce g ~op:Group.Sum (byte_buf 8 (10 + r)) in
        check_buf_all "allreduce minus proxy" (live_sum victim) res)
  in
  Tutil.check_int "epoch" 1 (Group.epoch members.(0));
  let db = Group.netdb members.(0) in
  let c3 = Selector.Netdb.cluster_of db 3 in
  Tutil.check_int "rank 3 promoted to proxy" 3 (Selector.Netdb.leader db c3)

let test_evict_root () =
  (* rank 0 roots the allreduce AND leads cluster 0: rootless ops re-root
     to the lowest live rank; rooted ops on the dead root fail cleanly
     without poisoning the group *)
  let victim = 0 in
  let members =
    heal_scenario ~victim (fun r g ->
        let res = Group.allreduce g ~op:Group.Sum (byte_buf 8 (10 + r)) in
        check_buf_all "allreduce re-rooted" (live_sum victim) res;
        (match Group.bcast g ~root:0 (byte_buf 4 1) with
         | _ -> Alcotest.fail "bcast from a dead root must fail"
         | exception Group.Failed e ->
           Tutil.check_bool "names the eviction" true
             (try
                ignore (Str.search_forward (Str.regexp "evicted") e 0);
                true
              with Not_found -> false));
        Group.barrier g)
  in
  Tutil.check_bool "group not poisoned by the dead-root bcast" true
    (Group.poisoned members.(1) = None)

(* ---------- the crash matrix: six ops x two strategies ---------- *)

type mop = MBarrier | MBcast | MReduce | MAllreduce | MGather | MScatter

let mops = [ MBarrier; MBcast; MReduce; MAllreduce; MGather; MScatter ]

let mop_name = function
  | MBarrier -> "barrier"
  | MBcast -> "bcast"
  | MReduce -> "reduce"
  | MAllreduce -> "allreduce"
  | MGather -> "gather"
  | MScatter -> "scatter"

let run_matrix_case ?seed ~strategy ~victim op =
  let label =
    Printf.sprintf "%s/%s/victim%d" (mop_name op)
      (match strategy with Group.Flat -> "flat" | Group.Multilevel -> "ml")
      victim
  in
  let members =
    heal_scenario ?seed ~strategy ~victim (fun r g ->
        match op with
        | MBarrier -> Group.barrier g
        | MBcast ->
          let b = Group.bcast g ~root:0 (byte_buf 8 77) in
          check_buf_all (label ^ " payload") 77 b
        | MReduce -> (
          match Group.reduce g ~root:0 ~op:Group.Sum (byte_buf 8 (10 + r)) with
          | Some res when r = 0 ->
            check_buf_all (label ^ " result") (live_sum victim) res
          | Some _ -> Alcotest.fail (label ^ ": non-root got a result")
          | None -> Tutil.check_bool (label ^ " no result") true (r <> 0))
        | MAllreduce ->
          let res = Group.allreduce g ~op:Group.Sum (byte_buf 8 (10 + r)) in
          check_buf_all (label ^ " result") (live_sum victim) res
        | MGather -> (
          match Group.gather g ~root:0 (byte_buf 4 (20 + r)) with
          | Some arr ->
            Tutil.check_bool (label ^ " at root") true (r = 0);
            Array.iteri
              (fun i p ->
                 if i = victim then
                   Tutil.check_int (label ^ " dead entry empty") 0
                     (Bb.length p)
                 else check_buf_all (label ^ " entry") (20 + i) p)
              arr
          | None -> Tutil.check_bool (label ^ " elsewhere") true (r <> 0))
        | MScatter ->
          let ps = Array.init 4 (fun i -> byte_buf 4 (50 + i)) in
          let mine = Group.scatter g ~root:0 ps in
          check_buf_all (label ^ " entry") (50 + r) mine)
  in
  (* rank 0 always survives: victims range over 1..3 *)
  Tutil.check_int (label ^ " epoch") 1 (Group.epoch members.(0));
  Tutil.check_bool (label ^ " dead") true
    (Group.dead_ranks members.(0) = [ victim ])

let test_matrix strategy () =
  List.iter
    (fun op ->
       (* victim 1: root's SAN neighbour; 2: the remote cluster's proxy;
          3: a remote non-proxy leaf *)
       List.iter (fun victim -> run_matrix_case ~strategy ~victim op) [ 1; 2; 3 ])
    mops

(* Quadruples the random matrix once failed: a WAN segment and its fast
   retransmit were both lost, so the peer's heartbeats sat in the
   receiver's TCP reassembly queue past the WAN confirmation horizon and a
   live rank was evicted. Segments accepted into reassembly now count as
   hearing from the peer. *)
let test_reassembly_is_hearing () =
  run_matrix_case ~seed:160226 ~strategy:Group.Flat ~victim:1 MReduce;
  run_matrix_case ~seed:160258 ~strategy:Group.Multilevel ~victim:1 MGather

(* Randomized replay of the same matrix under fresh jitter/loss draws: any
   failing (seed, op, victim, strategy) quadruple is printed by QCheck and
   reproduces deterministically. *)
let qcheck_matrix =
  QCheck.Test.make ~name:"healing matrix under random seeds" ~count:12
    QCheck.(
      quad (int_bound 1_000_000) (int_range 1 3) (int_bound 5) bool)
    (fun (seed, victim, opi, flat) ->
       (* shrinking can step outside int_range: clamp, never crash rank 0 *)
       let victim = 1 + ((abs (victim - 1)) mod 3) in
       let strategy = if flat then Group.Flat else Group.Multilevel in
       run_matrix_case ~seed ~strategy ~victim (List.nth mops opi);
       true)

let () =
  Alcotest.run "detect"
    [
      ( "detector",
        [
          Alcotest.test_case "accrual: suspect then confirm" `Quick
            test_accrual;
          Alcotest.test_case "traffic refutes suspicion" `Quick test_refute;
          Alcotest.test_case "transport death confirms immediately" `Quick
            test_link_dead;
        ] );
      ( "healing",
        [
          Alcotest.test_case "no crash: all ops, multilevel" `Quick
            (test_heal_noop Group.Multilevel);
          Alcotest.test_case "no crash: all ops, flat" `Quick
            (test_heal_noop Group.Flat);
          Alcotest.test_case "crash non-proxy: evict + retry" `Quick
            test_evict_nonproxy;
          Alcotest.test_case "crash proxy: re-election" `Quick
            test_evict_proxy;
          Alcotest.test_case "crash root: re-root / clean error" `Quick
            test_evict_root;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "six ops, multilevel" `Slow
            (test_matrix Group.Multilevel);
          Alcotest.test_case "six ops, flat" `Slow (test_matrix Group.Flat);
          Alcotest.test_case "lost retransmit: reassembly counts as heard"
            `Quick test_reassembly_is_hearing;
        ] );
      Tutil.qsuite "matrix-random" [ qcheck_matrix ];
    ]
