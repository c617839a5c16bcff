(** NetAccess SysIO: arbitrated access to distributed-oriented resources.

    Using the socket API directly does not give reentrance or fair
    multiplexing: middleware using signal-driven I/O misbehaves, and one
    middleware busy-polling starves another using blocking I/O. SysIO
    instead manages a {e unique receipt loop} (the NetAccess dispatcher)
    that watches all open sockets and invokes user-registered callbacks when
    a socket becomes ready; callbacks are serialized, so there are no
    reentrance issues and no signals.

    SysIO is also the execution-backend boundary. A {!stack} is either the
    simulated TCP driver ([Drivers.Tcp], virtual clock) or a Hostio stream
    transport over real Unix sockets (monotonic clock) — chosen by the
    node's {!Engine.Clock.t}, so VLink adapters, Circuit and the
    conformance kit run unmodified on either backend. Host connections
    subscribe to their segment's link state: a fault-plan "link down"
    resets the real sockets the way a cable pull would. *)

type t

val get : Simnet.Node.t -> t
(** The node's SysIO subsystem (created on first use). *)

val node : t -> Simnet.Node.t

type stack
(** Per-(node, segment) transport instance — simulated TCP or Hostio. *)

type conn
(** A byte-stream connection on either backend. Events delivered for it use
    the [Drivers.Tcp.event] vocabulary on both. *)

val stack_on : t -> Simnet.Segment.t -> stack
(** Transport stack of this node on a (LAN/WAN/loopback) segment, creating
    it on first use. Simulated when the node runs on the virtual clock,
    Hostio-backed when it runs on a reactor's monotonic clock. *)

val stack_node : stack -> Simnet.Node.t
val stack_segment : stack -> Simnet.Segment.t

val tcp_stack : stack -> Drivers.Tcp.stack option
(** The simulated driver behind a sim-backend stack ([None] on host) — for
    tests and benchmarks that introspect TCP internals. *)

val udp_on : t -> Simnet.Segment.t -> Drivers.Udp.t
(** Simulated-backend only (VRP is remapped to stream transports on the
    host backend). *)

val watch : t -> conn -> (Drivers.Tcp.event -> unit) -> unit
(** Register the connection with the receipt loop: every transport event is
    dispatched through the arbitration core to the (non-blocking)
    callback. *)

val unwatch : t -> conn -> unit
(** Stop dispatching events for this connection. *)

val listen :
  ?sndbuf:int -> ?rcvbuf:int -> t -> stack -> port:int -> (conn -> unit) ->
  unit
(** Arbitrated accept loop: new connections are handed to the callback from
    the dispatcher. The callback typically calls {!watch} on the new
    connection. On the host backend the real ephemeral port is registered
    in a process-wide rendezvous table keyed by (segment, node, logical
    port), so peers keep dialing logical ports. [sndbuf]/[rcvbuf] size the
    buffers of accepted sim connections (edge gateways listen small so
    100k connections fit a fixed byte budget); ignored on host stacks. *)

val connect :
  ?sndbuf:int -> ?rcvbuf:int -> t -> stack -> dst:int -> port:int ->
  (conn -> Drivers.Tcp.event -> unit) -> conn
(** Active open with the event stream (including [Established]) routed
    through the dispatcher. [dst]/[port] are the logical node id and port
    on both backends; a host-backend dial to a port nobody listens on
    delivers [Reset], like a SYN answered by RST. *)

(** {2 Connection operations (the [Drivers.Tcp] data-plane contract)} *)

val write : conn -> Engine.Bytebuf.t -> int
(** Bytes accepted into the send buffer; 0 = full, wait for [Writable]. *)

val write_space : conn -> int

val read : conn -> max:int -> Engine.Bytebuf.t option
(** Up to [max] in-order bytes; [None] when nothing is buffered. *)

val readable_bytes : conn -> int

val peer_closed : conn -> bool
(** True once the peer's FIN has been processed — the poll-after-subscribe
    catch-up for the edge-triggered [Peer_closed] event. *)

val conn_node : conn -> Simnet.Node.t

val close : conn -> unit
(** Graceful close: FIN once the send buffer drains. *)

val abort : conn -> unit
(** Hard close: RST to peer. *)

val watch_udp :
  t ->
  Drivers.Udp.t ->
  port:int ->
  (src:int -> src_port:int -> Engine.Bytebuf.t -> unit) ->
  unit

val events_dispatched : t -> int

(** {2 Edge (capacity) mode}

    Off by default; the classic post-per-event path is byte-identical to
    every prior release. [set_edge] flips the node to the 100k-connection
    regime:

    - each watched sim connection gets a coalescing readiness {e source}
      (pending [Readable]/[Writable] edges absorb duplicates) that sits on
      the ready list at most once — idle connections cost zero per round;
    - per-connection TCP timers (RTO, persist) are re-routed onto the
      node's {!Padico_fault.Timewheel}, one engine event per occupied slot
      instead of one per timer;
    - send rings come from the {!Engine.Bytebuf.Pool} size-classed slabs
      and fully-closed connections are reaped from the stack table.

    Host-backend connections keep the classic path (the reactor already
    delivers only ready fds, and the host E15 subset stays under the
    select fd ceiling). *)

val set_edge : t -> unit
(** Enable edge mode on this node (idempotent; applies to current and
    future sim stacks). *)

val edge : t -> bool

(** {2 Byte-budget accounting (sim stacks)} *)

val conn_count : t -> int
(** Live connections across this node's sim stacks (also exported as the
    [conn.count] gauge). *)

val bytes_resident : t -> int
(** Total resident connection bytes (see
    {!Drivers.Tcp.conn_resident_bytes}); the [conn.bytes_resident]
    gauge. *)

val conns_reaped : t -> int
(** Connections removed by edge-mode reaping. *)
