(** Array-based 4-ary min-heap with integer priorities.

    Used as the event queue of the simulator: priorities are virtual times in
    nanoseconds, and entries with equal priority are dequeued in insertion
    order (FIFO), which keeps simulations deterministic. The order is total:
    priority first, then insertion sequence.

    Keys are stored unboxed and values in a parallel array, so {!push},
    {!min_prio} and {!pop_min} allocate nothing once the capacity is
    reached. The heap keeps no reference to a value it has handed back:
    a popped value is collectable as soon as the caller drops it. *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty heap. *)

val length : 'a t -> int
(** [length h] is the number of queued entries. *)

val is_empty : 'a t -> bool

val push : 'a t -> prio:int -> 'a -> unit
(** [push h ~prio v] inserts [v] with priority [prio]. Capacity doubles when
    full. *)

val min_prio : 'a t -> int
(** [min_prio h] is the smallest priority. Allocates nothing. Raises
    [Invalid_argument] when [h] is empty. *)

val pop_min : 'a t -> 'a
(** [pop_min h] removes the entry with the smallest priority, breaking ties
    by insertion order, and returns its value. Allocates nothing. Raises
    [Invalid_argument] when [h] is empty. *)

val pop : 'a t -> (int * 'a) option
(** [pop h] is {!pop_min} with its priority, or [None] when empty. *)

val peek_prio : 'a t -> int option
(** [peek_prio h] is {!min_prio}, or [None] when empty. *)

val min_count : 'a t -> int
(** [min_count h] is the number of entries sharing the smallest priority
    (the same-instant bucket); [0] when empty. Those entries form a subtree
    under the root, and only that subtree is walked: O(bucket). Used only by
    non-FIFO schedule policies. *)

val pop_min_nth : 'a t -> int -> (int * 'a) option
(** [pop_min_nth h n] removes and returns the [n]-th entry — 0-based, in
    insertion order — of the smallest-priority bucket. [n] is clamped to
    the bucket, so [pop_min_nth h 0] behaves like {!pop}. O(b log b) for a
    bucket of [b] entries. *)

val clear : 'a t -> unit
(** [clear h] drops every entry and the storage. *)
