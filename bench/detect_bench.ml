(* E14: failure detection and self-healing collectives at grid scale.

   The E13 grid (8 Myrinet islands x 128 nodes, one VTHD WAN backbone,
   1024 ranks) runs a multilevel allreduce as a healing group while a
   member crashes with the operation in flight. Two victims are
   exercised: a leaf rank (cluster-local recovery) and a cluster proxy
   (the WAN-facing representative — its death forces a proxy re-election
   on top of the eviction). In both cases every survivor must deliver the
   exact reduction over the surviving contributions.

   Reported per victim kind:
   - recovery time: crash -> first post-eviction completed collective
     (the in-flight allreduce that stalls on the dead rank, heals, and
     retries over the shrunken group);
   - WAN crossings of a full-group allreduce before the crash vs a
     steady-state allreduce after the eviction — the recovery's lasting
     price (or saving: one fewer cluster member) on the scarce resource.

   Sim numbers are virtual-time and deterministic, recorded under e14.*.
   Under --backend host the same scenario runs on a small grid over real
   Unix sockets: the crash kills the victim's sockets (peers see RST,
   which short-circuits phi accrual), and wall-clock metrics land under
   e14_host.*. *)

module Time = Engine.Time
module Group = Collectives.Group
module Netdb = Selector.Netdb
module Gridgen = Scenario.Gridgen

(* One crash scenario on an already-generated grid (see Scenario.Heal);
   exits 1 unless every survivor finished with the exact surviving-ranks
   reduction and rank 0 ended in epoch 1 with only [victim] dead. *)
let scenario g ~label ~victim ~interval_ns ~crash_at ~deadline_ns ~until =
  let o =
    Scenario.Heal.crash g ~label ~victim ~interval_ns ~crash_at ~deadline_ns
      ~until
  in
  List.iter
    (fun (r, how) -> Printf.eprintf "e14-%s: rank %d %s\n" label r how)
    o.unfinished;
  List.iter
    (fun r ->
       let gm = o.groups.(r) in
       Printf.eprintf
         "e14-%s: rank %d allreduce diverged from the surviving-ranks \
          reduction (epoch %d, dead [%s])\n"
         label r (Group.epoch gm)
         (String.concat ";" (List.map string_of_int (Group.dead_ranks gm))))
    o.diverged;
  if o.unfinished <> [] || o.diverged <> [] then exit 1;
  let gm0 = o.groups.(0) in
  if Group.epoch gm0 <> 1 || Group.dead_ranks gm0 <> [ victim ] then begin
    Printf.eprintf "e14-%s: rank 0 membership wrong (epoch %d)\n" label
      (Group.epoch gm0);
    exit 1
  end;
  o

let report ~experiment ~case (o : Scenario.Heal.result) =
  let rec_ k v = Bhelp.record ~experiment (case ^ "." ^ k) v in
  Printf.printf
    "%-18s recovery %8.2f ms   wan before %6d msgs %9d B   after %6d msgs \
     %9d B\n"
    case
    (float_of_int o.recovery_ns /. 1e6)
    o.wan_msgs_before o.wan_bytes_before o.wan_msgs_after o.wan_bytes_after;
  rec_ "recovery_ms" (float_of_int o.recovery_ns /. 1e6);
  rec_ "wan_msgs_before" (float_of_int o.wan_msgs_before);
  rec_ "wan_bytes_before" (float_of_int o.wan_bytes_before);
  rec_ "wan_msgs_after" (float_of_int o.wan_msgs_after);
  rec_ "wan_bytes_after" (float_of_int o.wan_bytes_after)

let run_sim () =
  let clusters = 8 and per_cluster = 128 in
  Bhelp.print_header
    (Printf.sprintf
       "E14: self-healing collectives under member crash (%d clusters x %d \
        nodes = %d ranks)"
       clusters per_cluster (clusters * per_cluster));
  (* A 1 ms heartbeat at 1024 ranks is ~4.5 M frames per simulated
     second of pure monitoring — affordable on a real grid, not in a
     discrete-event run of it. A 10 ms tick keeps the event count sane;
     every suspicion horizon stretches by the same factor, so the
     detector's shape (and the recovery story) is unchanged, just
     slower. *)
  let go ~case ~victim_of =
    let g =
      Gridgen.generate ~clusters ~nodes_per_cluster:per_cluster ()
    in
    let victim = victim_of g in
    let o =
      scenario g ~label:case ~victim ~interval_ns:(Time.ms 10)
        ~crash_at:(Time.ms 200) ~deadline_ns:(Time.sec 2) ~until:(Time.sec 3)
    in
    report ~experiment:"e14" ~case o
  in
  (* Leaf: a mid-island rank — recovery is cluster-local plus the epoch
     flood. Proxy: cluster 1's WAN representative — the eviction also
     re-elects the island's proxy. *)
  go ~case:"leaf" ~victim_of:(fun _ -> per_cluster + 1);
  go ~case:"proxy" ~victim_of:(fun g ->
      (* Netdb's convention: the proxy is the cluster's smallest rank.
         Read it from the topology database instead of hard-coding. *)
      let db =
        Netdb.build
          (Padico.net g.Gridgen.grid)
          (Array.of_list g.Gridgen.nodes)
      in
      Netdb.leader db (Netdb.cluster_of db per_cluster))

let run_host () =
  let clusters = 2 and per_cluster = 2 in
  Bhelp.print_header
    (Printf.sprintf
       "E14: self-healing collectives under a real-socket kill (host \
        backend, %d x %d ranks, wall-clock)"
       clusters per_cluster);
  let g =
    Gridgen.generate ~backend:Padico.Host ~clusters
      ~nodes_per_cluster:per_cluster ()
  in
  (* Wall-clock timings are loose: the warm-up includes real connect(2)
     handshakes, so the crash lands late enough to be safely past it.
     The heartbeat tick is coarse (25 ms wall): on a real scheduler a
     millisecond horizon false-confirms on any epoll or GC hiccup, and
     the kill is detected through the socket RST short-circuit anyway —
     phi accrual is only the fallback here. *)
  let o =
    scenario g ~label:"host-leaf" ~victim:3 ~interval_ns:(Time.ms 25)
      ~crash_at:(Time.ms 400) ~deadline_ns:(Time.sec 1) ~until:(Time.sec 3)
  in
  report ~experiment:"e14_host" ~case:"leaf" o

let run () =
  if !Bhelp.backend = Padico.Host then run_host () else run_sim ()
