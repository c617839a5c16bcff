(** Grid topology container and knowledge base.

    A [Net.t] owns the nodes and segments of one simulated grid and answers
    the topology queries the selector needs ("which networks connect A and
    B, and of which class?") — the paper's "knowledge base of the network
    topology managed by PadicoTM". *)

type t

val create : ?seed:int -> ?clock:Engine.Clock.t -> unit -> t
(** [?clock] is the execution backend every node of this grid runs on
    (default: the grid's own simulator clock). *)

val sim : t -> Engine.Sim.t
(** The grid's simulator. *)

val clock : t -> Engine.Clock.t
(** The grid's clock capability. *)

val add_node : t -> string -> Node.t
(** Create a node. Each node automatically gets a private loopback
    segment. *)

val add_segment : t -> Linkmodel.t -> ?name:string -> Node.t list -> Segment.t
(** Create a segment over [model] and attach the given nodes. *)

val nodes : t -> Node.t list
val segments : t -> Segment.t list
val node_by_id : t -> int -> Node.t option

val loopback_of : t -> Node.t -> Segment.t
(** The node's private loopback segment. *)

val segments_of : t -> Node.t -> Segment.t list
(** Segments the node is attached to (its loopback included), in global
    insertion order. O(degree) — use this instead of filtering {!segments}
    when iterating per node: grid-scale topologies hold thousands of
    segments, but each node touches only a handful. *)

val links_between : t -> Node.t -> Node.t -> Segment.t list
(** All segments attached to both nodes (the loopback when they are the same
    node), ordered by decreasing bandwidth. *)

val best_link : t -> Node.t -> Node.t -> Segment.t option
(** Highest-bandwidth segment between the two nodes. *)

val run : ?until:int -> t -> unit
(** Run the grid's simulator ({!Engine.Sim.run}). *)

val now : t -> int
(** The simulator's virtual clock. *)

val spawn : t -> Node.t -> ?name:string -> (unit -> unit) -> Engine.Proc.handle
