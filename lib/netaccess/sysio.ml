module Tcp = Drivers.Tcp
module Stats = Engine.Stats
module Clock = Engine.Clock
module Trace = Padico_obs.Trace
module Metrics = Padico_obs.Metrics
module Stream = Hostio.Stream
module Timewheel = Padico_fault.Timewheel

type t = {
  sio_node : Simnet.Node.t;
  core : Na_core.t;
  dispatched : Stats.Counter.t;
  (* Edge (capacity) mode: readiness-queue event routing, timewheel
     per-connection timers, closed-connection reaping.
     Off by default — the classic per-event post path, byte-identical. *)
  mutable edge : bool;
  mutable sim_stacks : Tcp.stack list; (* for the byte-budget gauges *)
}

let instances : (int, t) Hashtbl.t = Hashtbl.create 16
let () = Engine.Lifecycle.on_reset (fun () -> Hashtbl.reset instances)

let get n =
  let key = Simnet.Node.uid n in
  match Hashtbl.find_opt instances key with
  | Some t -> t
  | None ->
    let scope = Metrics.Node (Simnet.Node.name n) in
    let t =
      { sio_node = n; core = Na_core.get n;
        dispatched = Metrics.fresh_counter scope "sysio.dispatched";
        edge = false; sim_stacks = [] }
    in
    Metrics.gauge scope "conn.count" (fun () ->
        float_of_int
          (List.fold_left
             (fun acc st -> acc + Tcp.conn_count st)
             0 t.sim_stacks));
    Metrics.gauge scope "conn.bytes_resident" (fun () ->
        float_of_int
          (List.fold_left
             (fun acc st -> acc + Tcp.resident_bytes st)
             0 t.sim_stacks));
    Hashtbl.replace instances key t;
    t

let node t = t.sio_node

(* ---------- backends ---------- *)

type stack =
  | Sim_stack of Tcp.stack
  | Host_stack of host_stack

and host_stack = {
  hs_node : Simnet.Node.t;
  hs_seg : Simnet.Segment.t;
  hs_loop : Hostio.Loop.t;
}

(* A connection carries an optional readiness source: edge mode accumulates
   its transport events here and puts the source on the dispatcher's ready
   list, instead of posting one work item per event. *)
type conn = { impl : conn_impl; mutable src : edge_src option }

and conn_impl =
  | Sim_conn of Tcp.conn
  | Host_conn of host_conn

and edge_src = {
  mutable es_cb : Tcp.event -> unit;
  es_pending : Tcp.event Queue.t;
  mutable es_source : Na_core.source option;
}

and host_conn = {
  (* [None] models a refused dial: a SYN answered by RST. *)
  hc_stream : Stream.t option;
  hc_node : Simnet.Node.t;
  mutable hc_dead : bool; (* guards the segment link-state subscription *)
}

let host_stacks : (int * int, host_stack) Hashtbl.t = Hashtbl.create 16
let () = Engine.Lifecycle.on_reset (fun () -> Hashtbl.reset host_stacks)

(* Edge capabilities on a simulated TCP stack: per-connection timers on the
   shared per-clock timewheel (one engine event per occupied slot instead
   of one per RTO) and closed-connection reaping. *)
let enable_edge_stack t st =
  let wheel = Timewheel.for_clock (Simnet.Node.clock t.sio_node) in
  Tcp.set_timer_service st (fun ~after_ns f ->
      ignore (Timewheel.arm wheel ~after_ns f));
  Tcp.set_reap st true

let set_edge t =
  if not t.edge then begin
    t.edge <- true;
    List.iter (enable_edge_stack t) t.sim_stacks
  end

let edge t = t.edge

let stack_on t seg =
  let clk = Simnet.Node.clock t.sio_node in
  if Clock.is_virtual clk then begin
    let st = Tcp.attach seg t.sio_node in
    if not (List.memq st t.sim_stacks) then begin
      t.sim_stacks <- st :: t.sim_stacks;
      if t.edge then enable_edge_stack t st
    end;
    Sim_stack st
  end
  else
    let key = (Simnet.Node.uid t.sio_node, Simnet.Segment.uid seg) in
    match Hashtbl.find_opt host_stacks key with
    | Some hs -> Host_stack hs
    | None ->
      let loop =
        match Hostio.Loop.of_clock clk with
        | Some l -> l
        | None ->
          invalid_arg
            "Sysio.stack_on: monotonic clock without a Hostio loop"
      in
      let hs = { hs_node = t.sio_node; hs_seg = seg; hs_loop = loop } in
      Hashtbl.replace host_stacks key hs;
      Host_stack hs

let stack_node = function
  | Sim_stack st -> Tcp.node st
  | Host_stack hs -> hs.hs_node

let stack_segment = function
  | Sim_stack st -> Tcp.segment st
  | Host_stack hs -> hs.hs_seg

let tcp_stack = function Sim_stack st -> Some st | Host_stack _ -> None

let udp_on t seg = Drivers.Udp.attach seg t.sio_node

(* Logical (segment, listening node, logical port) -> the real listener,
   whose ephemeral OS port peers actually dial. Segment uids are
   process-unique, so concurrent grids never collide. *)
let rendezvous : (int * int * int, Stream.listener) Hashtbl.t =
  Hashtbl.create 16

let map_event = function
  | Stream.Established -> Tcp.Established
  | Stream.Readable -> Tcp.Readable
  | Stream.Writable -> Tcp.Writable
  | Stream.Peer_closed -> Tcp.Peer_closed
  | Stream.Reset -> Tcp.Reset

(* Bridge simulated faults onto the real socket: carrier loss on the
   segment resets the connection (RST out, [Reset] locally). The watcher
   stack on a segment cannot be removed, so a generation flag keeps stale
   subscriptions inert. *)
let mk_host_conn hs stream =
  let hc = { hc_stream = Some stream; hc_node = hs.hs_node; hc_dead = false } in
  let kill up =
    if (not up) && not hc.hc_dead then begin
      hc.hc_dead <- true;
      Stream.reset stream
    end
  in
  Simnet.Segment.on_link_state hs.hs_seg kill;
  (* A node crash kills that node's real sockets the same way: the peer
     sees an RST, which is exactly what a failure detector listening for
     transport death needs. *)
  Simnet.Node.on_state hs.hs_node kill;
  (* The watcher only covers crashes after this point; a socket opened on
     an already-crashed node must be stillborn, or the zombie keeps
     talking — on simnet a down node cannot emit a single frame, and the
     failure-detection stack depends on the host backend matching that. *)
  if not (Simnet.Node.is_up hs.hs_node) then kill false;
  hc

(* ---------- dispatch through the arbitration core ---------- *)

let event_name = function
  | Tcp.Established -> "established"
  | Tcp.Readable -> "readable"
  | Tcp.Writable -> "writable"
  | Tcp.Peer_closed -> "peer-closed"
  | Tcp.Reset -> "reset"

(* Route an event through the arbitration core, charging the callback
   dispatch cost. *)
let dispatch ?prio t f =
  Na_core.post ?prio t.core Na_core.Sysio_work (fun () ->
      Stats.Counter.incr t.dispatched;
      Simnet.Node.cpu_async t.sio_node Calib.sysio_callback_ns (fun () -> ());
      f ())

(* Readable events carry bulk data and are the receive-window pushback
   point: deferring one under overload leaves the bytes in the TCP receive
   buffer, which closes the advertised window and stalls the sender — the
   classic "stop reading and let the transport push back". Everything else
   (connection lifecycle, writability) stays Normal so control traffic is
   never starved by a data flood. *)
let event_prio = function
  | Tcp.Readable -> Na_core.Low
  | Tcp.Established | Tcp.Writable | Tcp.Peer_closed | Tcp.Reset ->
    Na_core.Normal

let trace_event t name =
  if Trace.on () then
    Trace.instant t.sio_node (Padico_obs.Event.Sysio_event { event = name })

let wire_cb t cb ev =
  dispatch ~prio:(event_prio ev) t (fun () ->
      trace_event t (event_name ev);
      cb ev)

(* ---------- edge-mode readiness sources ---------- *)

let drain_src t es () =
  while not (Queue.is_empty es.es_pending) do
    let ev = Queue.pop es.es_pending in
    Stats.Counter.incr t.dispatched;
    Simnet.Node.cpu_async t.sio_node Calib.sysio_callback_ns (fun () -> ());
    trace_event t (event_name ev);
    es.es_cb ev
  done

(* Level-style coalescing: a [Readable]/[Writable] already pending absorbs
   the new edge (the callback reads/writes everything available when it
   runs — "at least one delivery after the last event"). Lifecycle events
   keep their order and multiplicity. *)
let push_event t es ev =
  let absorbed =
    match ev with
    | Tcp.Readable | Tcp.Writable ->
      Queue.fold (fun acc e -> acc || e = ev) false es.es_pending
    | Tcp.Established | Tcp.Peer_closed | Tcp.Reset -> false
  in
  if not absorbed then Queue.push ev es.es_pending;
  match es.es_source with
  | Some s -> Na_core.mark_ready t.core s
  | None -> ()

(* Attach (or retarget) the connection's readiness source and point the
   transport's event callback at it. *)
let edge_attach t conn cb =
  match conn.src with
  | Some es -> es.es_cb <- cb
  | None ->
    (match conn.impl with
     | Sim_conn c ->
       let es =
         { es_cb = cb; es_pending = Queue.create (); es_source = None }
       in
       es.es_source <- Some (Na_core.register_source t.core ~drain:(drain_src t es));
       conn.src <- Some es;
       Tcp.set_event_cb c (fun ev -> push_event t es ev)
     | Host_conn _ ->
       (* Host sockets keep the classic post-per-event path: the reactor
          already delivers only ready fds, and the host E15 subset runs
          under the select fd ceiling anyway. *)
       ())

let edge_detach t conn =
  match conn.src with
  | None -> ()
  | Some es ->
    (match es.es_source with
     | Some s -> Na_core.unregister_source t.core s
     | None -> ());
    es.es_cb <- (fun _ -> ());
    conn.src <- None

let watch t conn cb =
  (* Interest registration drives the adaptive scheduler's idle-scan
     model: each watched source is one more reason a real receipt loop
     would keep select()ing. [watch]/[unwatch] must pair. *)
  Na_core.add_sysio_interest t.core 1;
  match conn.impl with
  | Sim_conn c ->
    if t.edge then edge_attach t conn cb
    else Tcp.set_event_cb c (fun ev -> wire_cb t cb ev)
  | Host_conn { hc_stream = Some s; _ } ->
    Stream.set_event_cb s (fun ev -> wire_cb t cb (map_event ev))
  | Host_conn _ ->
    (* Refused dial: the only event this connection will ever see. *)
    wire_cb t cb Tcp.Reset

let unwatch t conn =
  Na_core.add_sysio_interest t.core (-1);
  match conn.impl with
  | Sim_conn c ->
    edge_detach t conn;
    Tcp.set_event_cb c (fun _ -> ())
  | Host_conn { hc_stream = Some s; _ } -> Stream.set_event_cb s (fun _ -> ())
  | Host_conn _ -> ()

let mk_conn impl = { impl; src = None }

let listen ?sndbuf ?rcvbuf t stack ~port cb =
  Na_core.add_sysio_interest t.core 1;
  match stack with
  | Sim_stack st ->
    Tcp.listen ?sndbuf ?rcvbuf st ~port (fun conn ->
        dispatch t (fun () ->
            trace_event t "accept";
            cb (mk_conn (Sim_conn conn))))
  | Host_stack hs ->
    let key =
      (Simnet.Segment.uid hs.hs_seg, Simnet.Node.id t.sio_node, port)
    in
    if Hashtbl.mem rendezvous key then
      invalid_arg "Sysio.listen: port already bound";
    let listener =
      Stream.listen hs.hs_loop (fun stream ->
          let conn = mk_conn (Host_conn (mk_host_conn hs stream)) in
          dispatch t (fun () ->
              trace_event t "accept";
              cb conn))
    in
    Hashtbl.replace rendezvous key listener

let connect ?sndbuf ?rcvbuf t stack ~dst ~port cb =
  Na_core.add_sysio_interest t.core 1;
  match stack with
  | Sim_stack st ->
    let c = Tcp.connect ?sndbuf ?rcvbuf st ~dst ~port in
    let conn = mk_conn (Sim_conn c) in
    if t.edge then edge_attach t conn (cb conn)
    else Tcp.set_event_cb c (fun ev -> wire_cb t (cb conn) ev);
    conn
  | Host_stack hs ->
    let key = (Simnet.Segment.uid hs.hs_seg, dst, port) in
    (match Hashtbl.find_opt rendezvous key with
     | Some listener ->
       let stream =
         Stream.connect hs.hs_loop
           ~port:(Stream.listener_port listener) ()
       in
       let conn = mk_conn (Host_conn (mk_host_conn hs stream)) in
       Stream.set_event_cb stream (fun ev -> wire_cb t (cb conn) (map_event ev));
       conn
     | None ->
       (* Nobody listens on that logical port: SYN -> RST. *)
       let conn =
         mk_conn
           (Host_conn
              { hc_stream = None; hc_node = hs.hs_node; hc_dead = true })
       in
       Clock.after (Simnet.Node.clock t.sio_node) 0 (fun () ->
           wire_cb t (cb conn) Tcp.Reset);
       conn)

(* ---------- connection operations ---------- *)

let write conn b =
  match conn.impl with
  | Sim_conn c -> Tcp.write c b
  | Host_conn { hc_stream = Some s; _ } -> Stream.write s b
  | Host_conn _ -> 0

let write_space conn =
  match conn.impl with
  | Sim_conn c -> Tcp.write_space c
  | Host_conn { hc_stream = Some s; _ } -> Stream.write_space s
  | Host_conn _ -> 0

let read conn ~max =
  match conn.impl with
  | Sim_conn c -> Tcp.read c ~max
  | Host_conn { hc_stream = Some s; _ } -> Stream.read s ~max
  | Host_conn _ -> None

let readable_bytes conn =
  match conn.impl with
  | Sim_conn c -> Tcp.readable_bytes c
  | Host_conn { hc_stream = Some s; _ } -> Stream.readable_bytes s
  | Host_conn _ -> 0

let peer_closed conn =
  match conn.impl with
  | Sim_conn c -> Tcp.peer_closed c
  | Host_conn { hc_stream = Some s; _ } -> Stream.peer_closed s
  | Host_conn _ -> true

let conn_node conn =
  match conn.impl with
  | Sim_conn c -> Tcp.conn_node c
  | Host_conn hc -> hc.hc_node

let close conn =
  match conn.impl with
  | Sim_conn c -> Tcp.close c
  | Host_conn ({ hc_stream = Some s; _ } as hc) ->
    hc.hc_dead <- true;
    Stream.close s
  | Host_conn _ -> ()

let abort conn =
  match conn.impl with
  | Sim_conn c -> Tcp.abort c
  | Host_conn ({ hc_stream = Some s; _ } as hc) ->
    hc.hc_dead <- true;
    Stream.abort s
  | Host_conn _ -> ()

let watch_udp t udp ~port cb =
  Na_core.add_sysio_interest t.core 1;
  Drivers.Udp.bind udp ~port (fun ~src ~src_port buf ->
      (* Datagrams are unreliable by contract: under overload they are shed
         rather than queued, and the datagram protocol's own retransmission
         (VRP) recovers. *)
      ignore
        (Na_core.post_droppable t.core Na_core.Sysio_work (fun () ->
             Stats.Counter.incr t.dispatched;
             Simnet.Node.cpu_async t.sio_node Calib.sysio_callback_ns
               (fun () -> ());
             trace_event t "udp-datagram";
             cb ~src ~src_port buf)))

let events_dispatched t = Stats.Counter.value t.dispatched

(* ---------- byte-budget accounting ---------- *)

let conn_count t =
  List.fold_left (fun acc st -> acc + Tcp.conn_count st) 0 t.sim_stacks

let bytes_resident t =
  List.fold_left (fun acc st -> acc + Tcp.resident_bytes st) 0 t.sim_stacks

let conns_reaped t =
  List.fold_left (fun acc st -> acc + Tcp.reaped st) 0 t.sim_stacks
