(** Topology knowledge base over a node group: cluster / level enumeration.

    The selector decides one link at a time; group operations need the dual
    view — "which ranks form a SAN island, which islands only meet over the
    WAN?". [build] partitions the ranks of a group (an ordered node array,
    as passed to {!Circuit.Ct.create}) into {e clusters}: the connected
    components of the SAN/LAN adjacency, i.e. two ranks are clustered
    together when a chain of SAN or LAN segments (or a shared host) joins
    them. Everything between clusters is the WAN level. The partition is
    what topology-aware collectives consult to build per-level trees —
    binomial inside a cluster, one designated proxy rank per cluster across
    the WAN (the MPICH-G2 multilevel scheme). *)

type t

(** Communication level of a hop, coarsest classification the multilevel
    trees care about. *)
type level =
  | San  (** inside a system-area island (or intra-host) *)
  | Lan  (** inside a LAN-joined cluster with no SAN *)
  | Wan  (** between clusters *)

val level_name : level -> string
(** ["san"] | ["lan"] | ["wan"]. *)

val build : Simnet.Net.t -> Simnet.Node.t array -> t
(** Partition [group]'s ranks. Deterministic: clusters are numbered by
    their smallest member rank, ascending. O(ranks + segment ports). *)

val evict : t -> int -> t
(** [evict db rank] is the partition without [rank]: the rank disappears
    from its cluster's member list (the cluster itself disappears if that
    was its last member), clusters are renumbered by their new smallest
    member, and positions are recomputed — so if the evicted rank was a
    cluster's leader/proxy, {!leader} automatically designates the next
    smallest survivor. [size] is unchanged: ranks keep their original
    numbers. The evicted rank maps to cluster [-1]; querying it afterwards
    is a caller error. Self-healing groups call this on each confirmed
    member death. O(ranks). *)

val size : t -> int
(** Number of ranks in the group (including any evicted ranks — the
    original numbering space). *)

val cluster_count : t -> int

val cluster_of : t -> int -> int
(** [cluster_of db rank] is the cluster id (0 .. cluster_count-1). *)

val members : t -> int -> int array
(** Ranks of a cluster, ascending. Do not mutate. *)

val position : t -> int -> int
(** [position db rank] is the rank's index inside [members db
    (cluster_of db rank)]. *)

val leader : t -> int -> int
(** Designated proxy rank of a cluster — its smallest member rank. *)

val cluster_level : t -> int -> level
(** [San] when the cluster is joined by at least one SAN segment (or is a
    single rank), [Lan] otherwise. Never [Wan]: that is the inter-cluster
    level. *)

val hop_level : t -> int -> int -> level
(** Level of a direct message between two ranks: [Wan] across clusters,
    the cluster's level inside one. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: cluster count and per-cluster size/level/leader. *)
