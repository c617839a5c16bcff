(** Schedule exploration: run the conformance kit under many interleavings
    and turn each failure into a replayable coordinate.

    The exploration loop is the test-side complement of the engine's
    schedule policies: FIFO is one interleaving of same-timestamp events;
    [Lifo], [Starve_oldest] and seeded [Random] permutations are others
    that are equally legal for the simulated hardware but merciless to
    register-after-dispatch races. Every failure is reported as a
    {!Replay} token — feed it back to {!replay} (or
    [padico_cli check --replay]) for a byte-identical reproduction. *)

type failure = {
  token : string;  (** replay token, [PCHK:v1:...] *)
  case : string;
  policy : Engine.Sim.policy;
  message : string;  (** the {!Conform.Failed} message (or raw exception) *)
}

type summary = {
  cases_run : int;  (** distinct conformance cases executed *)
  interleavings : int;  (** (case, policy) pairs executed *)
  failures : failure list;  (** first failing policy per case, in kit order *)
}

val exec :
  ?plan:Padico_fault.Plan.t -> Conform.case -> Engine.Sim.policy ->
  failure option
(** Run one case under one policy; [None] when it passes. *)

val default_policies : seeds:int -> Engine.Sim.policy list
(** [Fifo; Lifo; Starve_oldest] followed by [seeds] seeded random
    permutations (seeds [0 .. seeds-1]). *)

val filter_names : string list -> Conform.case list -> Conform.case list
(** The cases named by exact case name or ["fixture/"] prefix. *)

val explore :
  ?plan:Padico_fault.Plan.t -> ?demo:bool -> ?names:string list ->
  policies:Engine.Sim.policy list -> unit -> summary
(** Run the kit (filtered to [names] when given, by exact case name or
    ["fixture/"] prefix) under every policy. Per case, policies run in
    order and stop at the first failure. *)

val chaos_plan : seed:int -> Padico_fault.Plan.t
(** Deterministic randomized fault plan against the mixed collective
    fixture: member crashes (never the root's node), transient link
    outages (always restored), loss bursts, latency spikes and healed
    bipartitions, all inside the chaos cases' run window. Equal seeds
    give equal plans. *)

type chaos_failure = {
  seed : int;  (** regenerate the plan with [chaos_plan ~seed] *)
  plan : Padico_fault.Plan.t;  (** the generated plan, for artifact dumps *)
  failure : failure;
}

type chaos_summary = {
  plans_run : int;
  chaos_interleavings : int;
  chaos_failures : chaos_failure list;
}

val chaos :
  ?names:string list -> seeds:int -> policies:Engine.Sim.policy list ->
  unit -> chaos_summary
(** Run the chaos cases (default [["coll-chaos/"]]) once per generated
    plan (seeds [0 .. seeds-1]), each under every policy. A failure
    carries its generating seed and the full plan so the caller can dump
    a replayable plan file next to the token. *)

val replay :
  ?plan:Padico_fault.Plan.t -> string -> (failure option, string) result
(** Re-run the case a token denotes under its exact policy.
    [Ok (Some f)] reproduces the failure, [Ok None] means it passed
    (non-reproduction), [Error] for a malformed token, an unknown case, or
    a supplied plan whose digest does not match the token's. *)

val shrink :
  ?plan:Padico_fault.Plan.t -> failure ->
  Padico_fault.Plan.t option * Engine.Sim.policy * string
(** Greedy minimisation of a failing (plan, policy) pair: drop fault-plan
    events one at a time keeping the case failing, then try to replace the
    policy with a simpler one ([Lifo], [Starve_oldest]) that still fails.
    Returns the minimised plan, policy and the corresponding new token. *)
