(* Edge-gateway capacity machinery (see DESIGN.md section 15): the
   readiness-queue wakeup protocol under random interest churn, the
   timewheel firing-order contract against the reference heap, the
   idle-connection byte-budget pin, send rings held only while in flight,
   and the Hostio fd-ceiling guard. *)

module Bb = Engine.Bytebuf
module Sim = Engine.Sim
module Time = Engine.Time
module Node = Simnet.Node
module Na = Netaccess.Na_core
module Sysio = Netaccess.Sysio
module Tcp = Drivers.Tcp
module Timewheel = Padico_fault.Timewheel

(* ---------- readiness-queue protocol ---------- *)

(* Model: [nsrc] interest slots, each holding a live source (or none). A
   random schedule of Mark / Unregister / Re-register ops runs against a
   real dispatcher's readiness sources. Each model slot counts events
   not yet drained; the source's drain consumes them all (the per-
   connection queue drain). Invariants, checked after quiescence:

   - no lost wakeup: every live slot has zero undrained events — a mark
     always leads to a drain, including marks that coalesced while the
     source was already queued;
   - no duplicate dispatch: a drain never finds zero pending events —
     the [s_queued] flag admits at most one ready-list entry per source;
   - no ghost dispatch: a drain never runs for an unregistered slot;
   - the ready list itself is empty once the grid quiesces. *)

let nsrc = 8

let readiness_holds ops =
  let grid = Padico.create () in
  let n = Padico.add_node grid "n" in
  let core = Na.get n in
  let pending = Array.make nsrc 0 in
  let alive = Array.make nsrc false in
  let spurious = ref 0 and ghost = ref 0 in
  let mk_src i =
    Na.register_source core ~drain:(fun () ->
        if not alive.(i) then incr ghost
        else if pending.(i) = 0 then incr spurious
        else pending.(i) <- 0)
  in
  let srcs = Array.init nsrc mk_src in
  Array.fill alive 0 nsrc true;
  let t = ref 0 in
  List.iter
    (fun (x, y) ->
       let i = x mod nsrc in
       (* Same-timestamp bursts (delay 0) stress mark coalescing. *)
       t := !t + 700 * (y mod 4);
       Sim.after (Padico.sim grid) !t (fun () ->
           match y mod 3 with
           | 0 ->
             (* Fire: only live interests owe a drain. *)
             if alive.(i) then pending.(i) <- pending.(i) + 1;
             Na.mark_ready core srcs.(i)
           | 1 ->
             (* Remove interest: undelivered events are not owed, like
                closing an fd with events still queued. *)
             if alive.(i) then begin
               Na.unregister_source core srcs.(i);
               alive.(i) <- false;
               pending.(i) <- 0
             end
           | _ ->
             (* Replace interest with a fresh source on the same slot. *)
             if alive.(i) then begin
               Na.unregister_source core srcs.(i);
               pending.(i) <- 0
             end;
             srcs.(i) <- mk_src i;
             alive.(i) <- true))
    ops;
  Tutil.run_grid grid;
  let lost = Array.exists (fun p -> p > 0) pending in
  (not lost) && !spurious = 0 && !ghost = 0 && Na.ready_depth core = 0

let prop_readiness =
  QCheck.Test.make
    ~name:"ready queue: no lost wakeup, no duplicate dispatch" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 150) (pair small_nat small_nat))
    readiness_holds

(* ---------- timewheel vs heap firing order ---------- *)

(* The wheel's contract: a timer armed for [after_ns] fires at that
   deadline rounded {e up} to the next slot boundary (never early), and
   the {e relative} firing order is the one a per-timer event heap would
   give — (requested deadline, arm order), even for timers sharing a
   slot. Cancelled timers must not fire on either side. *)

let slot = 65_536

let round_up d = (d + slot - 1) / slot * slot

let wheel_matches_heap spec =
  let wheel_fired = ref [] in
  let sim_w = Sim.create () in
  let wheel = Timewheel.create ~slot_ns:slot sim_w in
  let timers =
    List.mapi
      (fun id (delay, _) ->
         Timewheel.arm wheel ~after_ns:delay (fun () ->
             wheel_fired := (id, Sim.now sim_w) :: !wheel_fired))
      spec
  in
  List.iteri
    (fun id (_, cancel) ->
       if cancel then Timewheel.cancel (List.nth timers id))
    spec;
  Sim.run sim_w;
  let heap_fired = ref [] in
  let sim_h = Sim.create () in
  List.iteri
    (fun id (delay, cancel) ->
       if not cancel then
         Sim.after sim_h delay (fun () -> heap_fired := id :: !heap_fired))
    spec;
  Sim.run sim_h;
  let wheel_order = List.rev_map fst !wheel_fired in
  let never_early =
    List.for_all
      (fun (id, at) -> at = round_up (fst (List.nth spec id)))
      !wheel_fired
  in
  wheel_order = List.rev !heap_fired && never_early

let prop_wheel_order =
  QCheck.Test.make ~name:"timewheel fires in heap order (slot-rounded)"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 0 40)
              (pair (int_range 1 500_000) bool))
    wheel_matches_heap

(* ---------- idle-connection byte budget ---------- *)

(* The regression pin behind `padico_cli flow --budget` and E15's
   bytes-per-connection column: an established connection that has never
   written costs exactly [Tcp.conn_overhead_bytes] — the send ring is
   lazy, so 100k idle connections are 100k * 512 B, not 100k * sndbuf.
   After every connection closes, edge-mode reaping returns both stacks
   to zero resident bytes. *)

let test_idle_budget () =
  let idle = 32 in
  let grid = Padico.create () in
  let s = Padico.add_node grid "s" in
  let c = Padico.add_node grid "c" in
  let seg =
    Padico.add_segment grid Simnet.Presets.ethernet100 ~name:"lan" [ s; c ]
  in
  let sio_s = Sysio.get s and sio_c = Sysio.get c in
  Sysio.set_edge sio_s;
  Sysio.set_edge sio_c;
  let st_s = Sysio.stack_on sio_s seg and st_c = Sysio.stack_on sio_c seg in
  Sysio.listen ~sndbuf:4096 ~rcvbuf:4096 sio_s st_s ~port:9500 (fun conn ->
      Sysio.watch sio_s conn (function
        | Tcp.Peer_closed ->
          Sysio.unwatch sio_s conn;
          Sysio.close conn
        | _ -> ());
      if Sysio.peer_closed conn then begin
        Sysio.unwatch sio_s conn;
        Sysio.close conn
      end);
  let conns =
    List.init idle (fun _ ->
        Sysio.connect ~sndbuf:4096 ~rcvbuf:4096 sio_c st_c ~dst:(Node.id s)
          ~port:9500 (fun _ _ -> ()))
  in
  Tutil.run_grid grid;
  Tutil.check_int "server holds every idle connection" idle
    (Sysio.conn_count sio_s);
  Tutil.check_int "idle server conn = overhead floor, no eager buffers"
    (idle * Tcp.conn_overhead_bytes)
    (Sysio.bytes_resident sio_s);
  Tutil.check_int "idle client conn = overhead floor"
    (idle * Tcp.conn_overhead_bytes)
    (Sysio.bytes_resident sio_c);
  List.iter Sysio.close conns;
  Tutil.run_grid grid;
  Tutil.check_int "all server conns reaped after close" 0
    (Sysio.conn_count sio_s);
  Tutil.check_int "server resident bytes return to zero" 0
    (Sysio.bytes_resident sio_s);
  Tutil.check_int "client resident bytes return to zero" 0
    (Sysio.bytes_resident sio_c);
  Tutil.check_bool "reap counter saw the churn" true
    (Sysio.conns_reaped sio_s >= idle)

(* A send ring is held only while written bytes are unacknowledged: once
   1 KiB is acked the ring is parked in the pool, the connection is back to
   the overhead floor, and its next write reuses the parked slab. A
   [Padico.reset] then drops the parked slabs with the grid. *)

let test_drained_ring_parked () =
  Padico.reset ();
  let grid = Padico.create () in
  let s = Padico.add_node grid "s" in
  let c = Padico.add_node grid "c" in
  let seg =
    Padico.add_segment grid Simnet.Presets.ethernet100 ~name:"lan" [ s; c ]
  in
  let sio_s = Sysio.get s and sio_c = Sysio.get c in
  Sysio.set_edge sio_s;
  Sysio.set_edge sio_c;
  let st_s = Sysio.stack_on sio_s seg and st_c = Sysio.stack_on sio_c seg in
  let received = ref 0 in
  Sysio.listen ~sndbuf:4096 ~rcvbuf:4096 sio_s st_s ~port:9501 (fun conn ->
      Sysio.watch sio_s conn (function
        | Tcp.Readable ->
          let rec drain () =
            match Sysio.read conn ~max:65_536 with
            | Some b ->
              received := !received + Bb.length b;
              drain ()
            | None -> ()
          in
          drain ()
        | _ -> ()));
  let conn =
    Sysio.connect ~sndbuf:4096 ~rcvbuf:4096 sio_c st_c ~dst:(Node.id s)
      ~port:9501 (fun _ _ -> ())
  in
  Tutil.run_grid grid;
  let parked0 = Bb.Pool.sized_parked_bytes () in
  Tutil.check_int "1 KiB accepted" 1024 (Sysio.write conn (Bb.create 1024));
  Tutil.check_int "ring held while in flight"
    (Tcp.conn_overhead_bytes + 4096) (Sysio.bytes_resident sio_c);
  Tutil.run_grid grid;
  Tutil.check_int "delivered" 1024 !received;
  Tutil.check_int "acked: back to the overhead floor" Tcp.conn_overhead_bytes
    (Sysio.bytes_resident sio_c);
  Tutil.check_int "ring parked in the pool" (parked0 + 4096)
    (Bb.Pool.sized_parked_bytes ());
  let hits0 = Bb.Pool.sized_hits () in
  ignore (Sysio.write conn (Bb.create 1024));
  Tutil.check_int "next write reuses the parked ring" (hits0 + 1)
    (Bb.Pool.sized_hits ());
  Tutil.run_grid grid;
  Tutil.check_int "second KiB delivered" 2048 !received;
  Padico.reset ();
  Tutil.check_int "reset drops parked rings" 0 (Bb.Pool.sized_parked_bytes ())

(* ---------- Hostio fd ceiling ---------- *)

(* select() silently corrupts memory past FD_SETSIZE; the loop must
   refuse such descriptors loudly instead. *)

let test_fd_guard () =
  let loop = Hostio.Loop.create () in
  let bad : Unix.file_descr = Obj.magic 2000 in
  (match Hostio.Loop.watch_fd loop bad ~passive:false with
   | () -> Alcotest.fail "watch_fd accepted an fd beyond FD_SETSIZE"
   | exception Invalid_argument _ -> ());
  Tutil.check_int "rejected fd is not watched" 0
    (Hostio.Loop.watched_fds loop);
  (* A low-numbered descriptor passes the guard and unwatches cleanly. *)
  let r, w = Unix.pipe () in
  Hostio.Loop.watch_fd loop r ~passive:false;
  Tutil.check_int "low fd accepted" 1 (Hostio.Loop.watched_fds loop);
  Hostio.Loop.unwatch_fd loop r;
  Tutil.check_int "unwatched" 0 (Hostio.Loop.watched_fds loop);
  Unix.close r;
  Unix.close w;
  Tutil.check_int "ceiling is select's FD_SETSIZE" 1024 Hostio.Loop.fd_limit

let () =
  Alcotest.run "edge"
    [ Tutil.qsuite "readiness" [ prop_readiness ];
      Tutil.qsuite "timewheel" [ prop_wheel_order ];
      ("budget",
       [ Alcotest.test_case "idle bytes pinned" `Quick test_idle_budget;
         Alcotest.test_case "drained ring parked, reset drops it" `Quick
           test_drained_ring_parked ]);
      ("hostio",
       [ Alcotest.test_case "fd ceiling guard" `Quick test_fd_guard ]) ]
