(* E15: edge gateway at 100k connections.

   A four-node gateway frontend accepts a WAN client population
   with churn, mid-handshake aborts and heavy-tailed (Pareto) request
   sizes. The sweep grows the population 1k -> 10k -> 100k with a fixed
   20 % active fraction (an edge gateway's steady state: most connections
   idle) and checks that the capacity machinery keeps the cost model flat:

   - per-connection wall-clock cost stays near-flat as the population
     grows 100x (budget 2.5x for 100k vs 1k) — no O(watched) scan
     anywhere on the dispatch path (readiness queues), no per-timer
     heap entries (timewheel RTOs), no send ring held once its bytes
     are acked. The budget is above 1 because the comparison deliberately
     crosses cache tiers: a 1k gateway's whole working set fits in L2
     (~1.3 MB live) while 100k lives in DRAM (~130 MB), so memory
     latency grows even though the work per connection does not —
     allocation per connection and resident bytes per connection are
     exactly scale-flat, which is the algorithmic claim. An O(watched)
     scan would show up as a 10-100x ratio here, not 2x;
   - idle connections do zero ready-queue work: after the run quiesces,
     every registered source is off the ready list;
   - resident bytes per connection stay under the fixed budget
     (conn overhead + a pooled ring while bytes are in flight +
     transient receive bytes);
   - engine events and live heap bytes per established connection stay
     flat: machine-free measures of work and state per connection, gated
     beside the wall ratio. Both the 100k average and the marginal cost
     of the 10k -> 100k step must stay within 1.1x of their 1k
     counterparts (the 1k average and the 1k -> 10k step). The averages
     carry the grid's fixed cost, which inflates small populations; the
     marginal costs cancel it, so growth per connection shows at 10 %.

   Sim numbers are virtual-time and deterministic, recorded under e15
   keys. Under --backend host the same scenario runs over real Unix
   sockets with the population capped to 400 clients: both connection
   endpoints plus listeners live in one process, so ~2.2 fds/connection
   must stay under the select() FD_SETSIZE ceiling of 1024 that
   Hostio.Loop enforces; wall-clock metrics land under e15_host keys. *)

module Time = Engine.Time
module Sysio = Netaccess.Sysio
module Na_core = Netaccess.Na_core
module Tcp = Drivers.Tcp
module Gridgen = Scenario.Gridgen

(* EDGE_CHURN / EDGE_ACTIVE override the workload mix for exploration
   (e.g. EDGE_CHURN=0 EDGE_ACTIVE=0 isolates the pure handshake+idle
   population); defaults are the documented E15 configuration. *)
let churn = try float_of_string (Sys.getenv "EDGE_CHURN") with Not_found -> 0.05
let tail = 1.3
let active_frac = try float_of_string (Sys.getenv "EDGE_ACTIVE") with Not_found -> 0.2

(* Per-connection wall cost at 100k over 1k (see the header). *)
let cost_ratio_budget = 2.5

(* Machine-free work and memory per established connection, large over
   small population: engine events and live heap bytes must stay flat. *)
let flat_budget = 1.1

let sum_over_nodes f nodes =
  List.fold_left (fun acc n -> acc + f (Sysio.get n)) 0 nodes

type sweep = {
  stats : Gridgen.edge_stats;
  per_conn_ns : float;
  conns : int;
  resident : int;
  reaped : int;
  ready_depth : int;
  sources : int;
  events : int;
  wall_ns : float;
  live_bytes : int;  (* major-heap growth, scenario built and run *)
}

let run_sweep ~clients =
  (* The per-connection cost is wall-clock: start every sweep from the
     same compacted heap so the ratios compare dispatch work, not the
     GC debris of whichever experiment ran before, and give the sweep a
     server-sized GC budget (large minor heap, lazy major slices, no
     compaction) — a 100k-connection gateway holds ~130 MB live, and
     default desktop GC pacing would charge every sweep for walking it,
     drowning the O(active) dispatch signal being measured. Dropping
     the module registries first actually frees the previous sweeps'
     grids (they stay reachable through the uid-keyed tables). *)
  Padico.reset ();
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 32 * 1024 * 1024;
           space_overhead = 1000; max_overhead = 1_000_000 };
  (* Pre-fault the fresh minor heap: the compaction above returned the
     previous scenario's pages to the OS, and first-touch faults on the
     replacement arena must not land inside the measured window. *)
  for _ = 1 to 16 * 1024 * 1024 do
    ignore (Sys.opaque_identity (ref 0))
  done;
  let e = Gridgen.edge ~clients ~churn ~tail () in
  let active = max 1 (int_of_float (float_of_int clients *. active_frac)) in
  let sim = Padico.sim e.Gridgen.e_grid in
  let ev0 = Engine.Sim.executed sim in
  let t0 = Unix.gettimeofday () in
  let stats = Gridgen.run_edge ~active e in
  let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  let events = Engine.Sim.executed sim - ev0 in
  let all = e.Gridgen.e_shards @ e.Gridgen.e_clients in
  let conns = sum_over_nodes Sysio.conn_count e.Gridgen.e_shards in
  let resident = sum_over_nodes Sysio.bytes_resident e.Gridgen.e_shards in
  let reaped = sum_over_nodes Sysio.conns_reaped all in
  let ready_depth =
    sum_over_nodes (fun s -> Na_core.ready_depth (Na_core.get (Sysio.node s))) all
  in
  let sources =
    sum_over_nodes (fun s -> Na_core.source_count (Na_core.get (Sysio.node s))) all
  in
  (* Live bytes while the idle population is still connected, outside
     the timed window. *)
  Gc.full_major ();
  let live_bytes = ((Gc.stat ()).Gc.live_words - live0) * (Sys.word_size / 8) in
  Gc.set gc;
  { stats; per_conn_ns = wall_ns /. float_of_int clients; conns; resident;
    reaped; ready_depth; sources; events; wall_ns; live_bytes }

let run_sim () =
  let sweep = [ ("1k", 1_000, 3); ("10k", 10_000, 3); ("100k", 100_000, 2) ] in
  let per_conn = Hashtbl.create 4 in
  let flat = Hashtbl.create 4 in
  List.iter
    (fun (label, clients, repeats) ->
       (* Wall-clock noise (page faults, frequency, interrupts) is
          strictly additive, so the minimum over a few repeats is the
          cost estimator; the virtual-time outcomes are deterministic
          and identical across repeats. *)
       let best = ref None in
       for _ = 1 to repeats do
         let r = run_sweep ~clients in
         match !best with
         | Some b when b.per_conn_ns <= r.per_conn_ns -> ()
         | _ -> best := Some r
       done;
       let { stats; per_conn_ns; conns; resident; reaped; ready_depth;
             sources; events; wall_ns; live_bytes } =
         Option.get !best
       in
       let ns_per_event = wall_ns /. float_of_int events in
       Hashtbl.replace per_conn label per_conn_ns;
       let bytes_per_conn =
         if conns = 0 then 0.0 else float_of_int resident /. float_of_int conns
       in
       let per_est v =
         float_of_int v /. float_of_int (max 1 stats.Gridgen.es_established)
       in
       let events_per_conn = per_est events
       and live_bytes_per_conn = per_est live_bytes in
       Hashtbl.replace flat label
         (stats.Gridgen.es_established, events, live_bytes);
       Printf.printf
         "  %-5s %7d est  %6d req  %5d srv  %5d rejoin  %4d abort  %7.0f \
          ns/conn  %6.0f B/conn  %6d reaped  ready %d/%d  %8d events  %5.0f \
          ns/event  %4.1f events/conn  %5.0f live B/conn\n%!"
         label stats.Gridgen.es_established stats.Gridgen.es_requests
         stats.Gridgen.es_served stats.Gridgen.es_reconnects
         stats.Gridgen.es_aborted per_conn_ns bytes_per_conn reaped
         ready_depth sources events ns_per_event events_per_conn
         live_bytes_per_conn;
       let rec_ k v = Bhelp.record ~experiment:"e15" (Printf.sprintf "sweep_%s.%s" label k) v in
       rec_ "established" (float_of_int stats.Gridgen.es_established);
       rec_ "requests" (float_of_int stats.Gridgen.es_requests);
       rec_ "served" (float_of_int stats.Gridgen.es_served);
       rec_ "reconnects" (float_of_int stats.Gridgen.es_reconnects);
       rec_ "aborted_handshakes" (float_of_int stats.Gridgen.es_aborted);
       rec_ "per_conn_ns" per_conn_ns;
       rec_ "bytes_per_conn" bytes_per_conn;
       rec_ "reaped" (float_of_int reaped);
       (* Idle connections cost zero per dispatch round: they are
          registered sources *off* the ready list once the run drains. *)
       rec_ "idle_ready_depth" (float_of_int ready_depth);
       rec_ "idle_sources" (float_of_int sources);
       (* Events dispatched by the run (virtual, exact) and the wall time
          each cost. *)
       rec_ "events" (float_of_int events);
       rec_ "ns_per_event" ns_per_event;
       (* The machine-free gates' inputs (see [flat_budget]). *)
       rec_ "events_per_conn" events_per_conn;
       rec_ "live_bytes_per_conn" live_bytes_per_conn)
    sweep;
  let ratio1 =
    Hashtbl.find per_conn "100k" /. Hashtbl.find per_conn "1k"
  in
  let ratio10 =
    Hashtbl.find per_conn "100k" /. Hashtbl.find per_conn "10k"
  in
  Printf.printf
    "  per-conn cost ratio 100k vs 1k: %.2f  vs 10k: %.2f (budget %.1f \
     incl. the L2->DRAM working-set shift; resident bytes and \
     allocation per conn are scale-flat)\n%!"
    ratio1 ratio10 cost_ratio_budget;
  Bhelp.record ~experiment:"e15" "cost_ratio_100k_vs_1k" ratio1;
  Bhelp.record ~experiment:"e15" "cost_ratio_100k_vs_10k" ratio10;
  (* Per established connection: the average at one population, and the
     marginal cost of the step between two (fixed grid cost cancels). *)
  let avg label pick =
    let est, _, _ as t = Hashtbl.find flat label in
    float_of_int (pick t) /. float_of_int (max 1 est)
  and marginal lo hi pick =
    let (e_lo, _, _ as l) = Hashtbl.find flat lo
    and (e_hi, _, _ as h) = Hashtbl.find flat hi in
    float_of_int (pick h - pick l) /. float_of_int (max 1 (e_hi - e_lo))
  in
  let events (_, ev, _) = ev and live (_, _, lb) = lb in
  let m_ev_lo = marginal "1k" "10k" events
  and m_ev_hi = marginal "10k" "100k" events
  and m_live_lo = marginal "1k" "10k" live
  and m_live_hi = marginal "10k" "100k" live in
  Printf.printf
    "  marginal per conn, 1k->10k vs 10k->100k: %.2f vs %.2f events, %.0f \
     vs %.0f live B\n%!"
    m_ev_lo m_ev_hi m_live_lo m_live_hi;
  let rec_m step k v =
    Bhelp.record ~experiment:"e15" (Printf.sprintf "marginal_%s.%s" step k) v
  in
  rec_m "1k_10k" "events_per_conn" m_ev_lo;
  rec_m "10k_100k" "events_per_conn" m_ev_hi;
  rec_m "1k_10k" "live_bytes_per_conn" m_live_lo;
  rec_m "10k_100k" "live_bytes_per_conn" m_live_hi;
  let failures =
    List.filter_map
      (fun (what, hi, lo, budget) ->
         if hi > budget *. lo then
           Some
             (Printf.sprintf "%s is %.2fx the small-population figure \
                              (budget %.1fx)"
                what (hi /. lo) budget)
         else None)
      [ ("per-connection wall cost at 100k", ratio1, 1.0, cost_ratio_budget);
        ("events per connection at 100k", avg "100k" events,
         avg "1k" events, flat_budget);
        ("live bytes per connection at 100k", avg "100k" live,
         avg "1k" live, flat_budget);
        ("marginal events per connection 10k->100k", m_ev_hi, m_ev_lo,
         flat_budget);
        ("marginal live bytes per connection 10k->100k", m_live_hi,
         m_live_lo, flat_budget) ]
  in
  if failures <> [] then begin
    List.iter (Printf.eprintf "e15: %s\n") failures;
    exit 1
  end

(* Host subset: 400 clients, no churn (real sockets + TIME_WAIT make
   churned ports noisy), bounded by wall-clock deadline since idle real
   connections keep the reactor alive. *)
let run_host () =
  let clients = 400 in
  let e = Gridgen.edge ~backend:Padico.Host ~client_nodes:4 ~clients
      ~churn:0.0 ~tail () in
  let t0 = Unix.gettimeofday () in
  let start_ns = Padico.now e.Gridgen.e_grid in
  let stats = Gridgen.run_edge ~ramp_ns:50_000 ~until:(Time.sec 5) e in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  (* [wall_ms] is bounded by the deadline (idle connections keep the
     reactor alive); the time to serve is when the last ack landed. *)
  let served_ms =
    float_of_int (max 0 (stats.Gridgen.es_last_ack - start_ns)) /. 1e6
  in
  Printf.printf
    "  host  %5d est  %5d req  %5d srv  (%d clients, served in %.1f ms, \
     %.0f ms wall, fd ceiling %d)\n%!"
    stats.Gridgen.es_established stats.Gridgen.es_requests
    stats.Gridgen.es_served clients served_ms wall_ms Hostio.Loop.fd_limit;
  let rec_ k v = Bhelp.record ~experiment:"e15_host" k v in
  rec_ "clients" (float_of_int clients);
  rec_ "established" (float_of_int stats.Gridgen.es_established);
  rec_ "requests" (float_of_int stats.Gridgen.es_requests);
  rec_ "served" (float_of_int stats.Gridgen.es_served);
  rec_ "time_to_served_ms" served_ms;
  rec_ "wall_ms" wall_ms

let run () =
  print_endline "E15: edge gateway at 100k connections";
  match !Bhelp.backend with
  | Padico.Sim -> run_sim ()
  | Padico.Host -> run_host ()
