(** Conservative parallel discrete-event runtime over topology shards.

    Partitions a simulation into shards — one {!Sim.t} heap each — and
    executes them on a pool of OCaml 5 domains with null-message /
    lower-bound-timestamp (LBTS) synchronization. Cross-shard events
    travel as timestamped frames through bounded SPSC channels, one per
    (source, destination) shard pair; the per-channel {e lookahead} (the
    minimum link latency between the two shards, strictly positive)
    bounds how far a shard may run ahead of its peers' published clocks.

    Determinism: the shard partition comes from the topology, never from
    the worker count, and frames merge with local events by the
    canonical key (timestamp, source shard, channel push order) — so a
    run over S shards is byte-identical whether 1 or N domains drive it.
    Simnet wires this up from [Net.create ~shards]; the classic
    single-heap engine is untouched and remains the default. *)

type t

val create : ?ring_capacity:int -> lookahead:int array array -> Sim.t array -> t
(** [create ~lookahead sims] builds a runtime over [sims] (one per
    shard). [lookahead.(i).(j)] is the minimum delay, in virtual ns, of
    any frame posted from shard [i] to shard [j] — it must be strictly
    positive for every pair that ever communicates (use [max_int] for
    pairs that cannot). [ring_capacity] (default 4096, rounded up to a
    power of two) sizes each SPSC ring; overflow degrades to a
    producer-side parking list, throttling the producer's published
    bound rather than blocking. Raises [Invalid_argument] on a
    non-square matrix or a non-positive cross-shard lookahead. *)

val shard_count : t -> int

val sim : t -> int -> Sim.t
(** The shard's simulator. *)

val post : t -> src:int -> dst:int -> ts:int -> (unit -> unit) -> unit
(** [post t ~src ~dst ~ts f] schedules [f] to run on shard [dst] at
    virtual time [ts]. Must be called from shard [src]'s worker while it
    executes (the simnet segment send path), with
    [ts >= now(src) + lookahead(src, dst)] — the conservative protocol's
    correctness rests on that floor. [src = dst] degrades to a plain
    [Sim.at]. *)

val run : ?domains:int -> ?until:int -> t -> unit
(** [run ~domains t] executes every shard to global quiescence (or
    [until]) on [domains] worker domains (default 1; clamped to the
    shard count; the calling domain is one of the workers). Terminates
    via an exact global-quiescence ledger — no timeout heuristics.
    Per-shard clock semantics on exit mirror {!Sim.run}: an exhausted
    shard keeps its last event's time, a shard with pending work beyond
    [until] is clamped forward to [until]. [Sim.stop] from inside any
    event, or {!stop}, ends the whole parallel run. A worker exception
    aborts the run and is re-raised here. Not reentrant. *)

val stop : t -> unit
(** Make the current {!run} return at the next scheduling round. *)

val stopped : t -> bool
(** Whether the current/last run was stopped (or aborted). *)

(** {1 Introspection (tests, benches)} *)

val executed : t -> int -> int
(** Events + frames executed by shard [i] since creation. *)

val posted : t -> int -> int
(** Cross-shard frames posted by shard [i] since creation. *)

(** {1 Protocol steps (tests)}

    The pieces a worker's scheduling loop is made of, callable one at a
    time from a single domain so a test can replay an interleaving that
    real parallelism produces only by chance. *)
module Step : sig
  val drain : t -> int -> int
  (** Move every frame visible in shard [i]'s inbound rings to its stage
      — the part of a scheduling round that follows the horizon
      snapshot. Returns the number of frames moved. *)

  val round : t -> int -> until:int -> bool
  (** One full scheduling round of shard [i]; [true] on progress. *)

  val idle_check : t -> bool
  (** An idle worker's termination test: sets the finished latch when the
      quiescence ledger reads 0. Returns the latch. *)

  val work : t -> int
  (** The quiescence ledger: active shards plus frames in flight. *)

  val finished : t -> bool
end
