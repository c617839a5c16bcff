(** NetAccess core: the per-node arbitration dispatcher.

    The paper's arbitration layer provides "a consistent, reentrant and
    multiplexed access to every networking resource": all network events of
    a node — MadIO message arrivals and SysIO socket readiness — are funneled
    through a {e single} dispatcher process, so middleware systems never poll
    competitively, never race, and never starve each other. The interleaving
    between the two subsystems is a user-tunable policy ("to give more
    priority to system sockets or high performance network depending on the
    application").

    Work items posted here must be {e non-blocking} (callback-based, à la
    Active Message, as the paper prescribes): an item that suspends would
    stall the whole node's network dispatch. *)

type t

type kind = Madio_work | Sysio_work

type prio = Normal | Low
(** Admission class. [Low] work (bulk socket readiness, droppable
    datagrams) is deferred when the queue is over its high watermark;
    [Normal] work is always admitted. *)

type quanta = {
  madio_quantum : int;  (** MadIO items dispatched per round *)
  sysio_quantum : int;  (** SysIO items dispatched per round *)
}

type adaptive = {
  ewma_weight : float;
      (** Weight of the newest work sample in the per-subsystem EWMA,
          in (0, 1]. *)
  min_quantum : int;  (** Quantum floor (>= 1). *)
  max_quantum : int;  (** Quantum ceiling (>= min_quantum). *)
  idle_backoff : bool;
      (** Exponentially back off the charged SysIO scan while watched
          sockets stay quiet ([false] = eager: scan every round). *)
  max_scan_gap : int;
      (** Backoff ceiling, in rounds between idle scans (>= 1). *)
  latency_boost : bool;
      (** Drain all pending MadIO work in the current round (SAN traffic
          never waits out extra rounds' poll costs). *)
}

type policy =
  | Static of quanta
      (** The fixed round-robin interleaving. The default
          [Static {madio_quantum = 4; sysio_quantum = 4}] is
          byte-identical to the pre-adaptive dispatcher: same costs, same
          event stream, same timings. *)
  | Adaptive of adaptive
      (** Activity-driven interleaving: per-subsystem EWMA of useful work
          per round sizes the quanta; the expensive select()-like SysIO
          scan is charged even when sockets are quiet (modelling the real
          receipt loop) but exponentially backed off, with posts waking
          the dispatcher directly (wake-on-post) so backing off never
          delays delivery. *)

val default_policy : policy
(** [Static {madio_quantum = 4; sysio_quantum = 4}]. *)

val default_quanta : quanta

val default_adaptive : adaptive
(** [{ewma_weight = 0.25; min_quantum = 1; max_quantum = 64;
    idle_backoff = true; max_scan_gap = 64; latency_boost = true}]. *)

val get : Simnet.Node.t -> t
(** The node's dispatcher; created (and its process spawned) on first use. *)

val node : t -> Simnet.Node.t

val set_policy : t -> policy -> unit
val policy : t -> policy

val post : ?prio:prio -> t -> kind -> (unit -> unit) -> unit
(** Enqueue a work item; the dispatcher wakes if idle. Exceptions raised by
    items are caught and logged, never propagated.

    With [~prio:Low] (default [Normal]) and the queue at or above its high
    watermark, the item is {e deferred} to a side queue instead, and only
    re-admitted once the live queue drains to the low watermark — never
    dropped, but arbitrarily delayed under overload. *)

val post_droppable : t -> kind -> (unit -> unit) -> bool
(** Like [post], but when the queue is at or above its high watermark the
    item is {e shed}: dropped on the floor ([false] returned, shed counter
    bumped, [flow.shed] traced). Use only for work whose loss the protocol
    already tolerates (e.g. unreliable datagram delivery). *)

val set_admission : t -> kind -> high:int -> low:int -> unit
(** Queue-depth watermarks (in items) for defer/shed admission control.
    Default: unbounded (no deferral, no shedding). Raises
    [Invalid_argument] unless [0 <= low <= high] and [high >= 1]. *)

val dispatched : t -> kind -> int
(** Items dispatched so far (fairness observability, experiment E6). *)

val queue_depth : t -> kind -> int

val deferred_depth : t -> kind -> int
(** Low-priority items currently parked by admission control. *)

val queue_peak : t -> kind -> int
(** Highest live-queue depth ever observed. *)

val shed_count : t -> kind -> int

val deferred_count : t -> kind -> int
(** Total items ever shed / deferred by admission control. *)

val mean_wait_ns : t -> kind -> float
(** Average virtual time items of [kind] spent queued before dispatch. *)

(** {2 Adaptive-policy state and observability}

    The scan counters only move under [Adaptive]; the static policy keeps
    the original cost model (no scan is charged unless SysIO work is
    actually pending). *)

val add_sysio_interest : t -> int -> unit
(** Register [n] (possibly negative) SysIO event sources — watched
    connections, listeners, UDP binds. Called by [Sysio]; the adaptive
    scheduler only models idle socket scans while interest is positive.
    Clamped at zero. *)

val sysio_interest : t -> int

val polls_busy : t -> int
(** Adaptive-policy SysIO scans that found readiness events pending. *)

val polls_idle : t -> int
(** Charged idle scans (sockets watched, nothing ready). *)

val polls_saved : t -> int
(** Idle scans elided by the exponential backoff — each one is
    [Calib.sysio_poll_ns] of dispatcher CPU that eager polling would have
    burned. *)

val scan_gap : t -> int
(** Current idle-scan backoff, in dispatcher rounds between scans. *)

val work_ewma : t -> kind -> float
(** The subsystem's EWMA of useful work per round. *)

val current_quantum : t -> kind -> int
(** The quantum the next round would grant [kind] (static: the policy
    constant; adaptive: the EWMA-driven value before any boost). *)

(** {2 Readiness sources (edge-gateway capacity)}

    By default every SysIO event is an individually posted work item —
    fine at tens of connections, O(events) queue traffic at 100k.
    Readiness {e sources} replace per-event posts: events accumulate at
    the source (one per watched connection) and the source sits on a
    ready list at most once until drained. A dispatch round charges one
    [Calib.sysio_poll_ns] poll when the list is non-empty and drains up
    to the SysIO quantum of sources; {e idle connections are not on the
    list and cost zero}. With no
    sources registered the machinery is inert and the dispatcher is
    byte-identical to the classic path — the PR-4/PR-5 capability
    precedent. *)

type source

val register_source : t -> drain:(unit -> unit) -> source
(** A new readiness source. [drain] must deliver {e every} pending event
    of the source and be non-blocking; it runs from the dispatcher. *)

val unregister_source : t -> source -> unit
(** O(1); a queued entry of a dead source is skipped uncharged. *)

val mark_ready : t -> source -> unit
(** Enqueue the source on the ready list (no-op if already queued or
    unregistered) and wake the dispatcher. The queued flag is cleared
    {e before} the drain runs, so a mark arriving mid-drain re-enqueues —
    no lost wakeups, no duplicate dispatch. *)

val source_live : source -> bool

val ready_depth : t -> int
(** Sources currently on the ready list. *)

val source_count : t -> int
(** Live registered sources. *)

val ready_drains : t -> int
(** Total source drains executed. *)

val ready_polls : t -> int
(** Dispatcher rounds that paid the ready-list poll charge. *)
