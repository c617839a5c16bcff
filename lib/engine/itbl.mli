(** Hash tables keyed by [int]: int equality and no allocation per lookup,
    where the polymorphic [Hashtbl] compares keys structurally. The hash
    is [Hashtbl.hash], so buckets, and the order of [iter] and [fold], are
    those of a polymorphic [Hashtbl] holding the same int keys. Composite
    keys are packed into one int by their owner. *)

include Hashtbl.S with type key = int
