(** Circuit: the parallel-oriented abstract interface.

    A Circuit manages communications on a definite set of nodes called a
    {e group} — an arbitrary set: a cluster, a subset, or nodes spanning
    several clusters or sites. Every node can talk to every other node
    through an interface optimized for parallel runtimes: incremental
    packing with explicit semantics, as in Madeleine. Each {e link} (pair
    of ranks) is bound to an adapter — straight ({!Ct_madio} on SAN,
    {!Ct_loopback} intra-node) or cross-paradigm ({!Ct_sysio} over TCP,
    {!Ct_vlink} over any VLink, e.g. parallel streams on a WAN); one
    instance can mix adapters across links.

    {b Construction cost.} A member's state is O(group size): one slot per
    link holding a {e shared} adapter — every link a member routes over
    one transport (one MadIO channel, one SysIO stack) points at the same
    adapter record, which takes the destination rank per send. Only
    per-pair transports ({!Ct_vlink}: one parallel-streams VLink per WAN
    pair) and co-located loopback peers carry per-link state. Per-peer
    connection state (a SysIO queue and TCP connection) materialises on
    the first send towards that peer. The node-id → rank index the
    receive paths need is built once per circuit by {!create_all} and
    shared read-only by every member. *)

type t
(** One member's view of a circuit (bound to its rank). *)

(** Transport provided by adapters. One adapter value is typically bound
    to many links of a member (all the peers it reaches over one
    transport instance), so the send takes the destination rank. *)
type adapter = {
  a_name : string;
  a_sendv : dst:int -> Engine.Bytebuf.t list -> unit;
      (** gathered send towards rank [dst] *)
}

(** Cursor over one received message. *)
type incoming

val create : group:Simnet.Node.t array -> rank:int -> name:string -> t
(** [group] must be identical (same order) on every member. Builds a
    private node-id → rank index (O(group size)); use {!create_all} to
    build every member of a circuit at once. *)

val create_all : group:Simnet.Node.t array -> name:string -> t array
(** One member per rank of [group], all sharing a single node-id → rank
    index built here. The index is never mutated afterwards. *)

val name : t -> string
val rank : t -> int
val size : t -> int
val node : t -> Simnet.Node.t
(** The local node. *)

val node_of_rank : t -> int -> Simnet.Node.t

val rank_of_node_id : t -> int -> int option
(** The rank hosted on the node with this {!Simnet.Node.id} (the highest
    one when several ranks share the node), if any. O(1). *)

val set_link : t -> dst:int -> adapter -> unit
(** Bind the link towards rank [dst]. Binding the same adapter value to
    many links costs one array slot per link. *)

val link_adapter_name : t -> dst:int -> string
(** Raises [Invalid_argument] — naming the circuit and the src/dst ranks —
    when the link is unbound. *)

(** {1 Sending: incremental packing} *)

type outgoing

val begin_packing : t -> dst:int -> outgoing
val pack : outgoing -> Engine.Bytebuf.t -> unit
val pack_int : outgoing -> int -> unit
(** Convenience: pack a 63-bit integer (8 bytes). *)

val end_packing : ?on_sent:(unit -> unit) -> outgoing -> unit
(** Messages packed before the destination link is bound are buffered and
    flushed when {!set_link} runs. [on_sent] fires once the message has
    been handed to the link adapter (after the circuit-op CPU charge, or at
    flush time for buffered messages) — a non-blocking local completion
    hook so callers can pipeline multi-stage exchanges such as collective
    tree rounds without suspending per send. *)

(** {1 Receiving} *)

val unpack : incoming -> int -> Engine.Bytebuf.t
val unpack_int : incoming -> int
val remaining : incoming -> int
val incoming_src : incoming -> int
(** Source rank. *)

val set_recv : t -> (incoming -> unit) -> unit
(** Single message handler per instance (parallel runtimes do their own
    matching above). Messages delivered before the handler was installed
    are buffered and flushed, in order, when it appears. *)

val deliver : t -> src:int -> Engine.Bytebuf.t -> unit
(** Adapter-side: hand a complete received message to the circuit. *)

(** {1 Transport death} *)

val set_on_peer_down : t -> (int -> unit) -> unit
(** Install the (single) transport-death handler: called with the remote
    rank when a binding layer reports that rank's connection irrecoverably
    gone (TCP reset / peer close on a real socket). Failure detectors use
    this to confirm a death without waiting for suspicion to accrue. *)

val peer_down : t -> rank:int -> unit
(** Binding-layer side: report the link towards [rank] dead. No-op unless a
    handler is installed (default), so circuits without a detector are
    unaffected. Out-of-range ranks (unknown peer) are ignored. *)

val messages_sent : t -> int
val messages_received : t -> int
