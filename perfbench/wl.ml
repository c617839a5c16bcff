(* What a workload hands back to the runner, and the hooks the runner gives
   it. A workload builds a fresh grid, finishes lazy set-up, runs its timed
   phase through [drive] and checks its own outputs. *)

type hooks = {
  drive : ?until:int -> Padico.t -> unit;
      (** Run the grid: [Padico.run] in untraced runs, an
          [Engine.Sim.step] loop that counts events in traced ones. *)
  timed_start : Padico.t -> unit;
      (** Call with the workload's grid when set-up is over. *)
  timed_end : unit -> unit;  (** Call when the timed phase is over. *)
}

type rep = {
  setup_s : float;  (** wall seconds of grid build plus lazy set-up *)
  wall_s : float;  (** wall seconds of the timed phase *)
  ops : int;  (** operations attempted in the timed phase *)
  failed : int;  (** failed, timed out or returned wrong data *)
  lat : Meter.Samples.t list;
      (** per-operation latency in µs on the workload's own clock *)
  pct : (float -> float option) option;
      (** the workload's own percentile over [lat], when pooling every
          sample is not the right summary *)
  clock : [ `Virtual | `Wall ];
  extra : (string * string * float) list;
      (** workload-specific end-to-end figures: name, unit, value *)
  layer : (string * float) list;  (** workload-specific per-layer values *)
  digest : string;
      (** every virtual-time outcome of the rep; on the simulated backend
          it must repeat exactly for a given seed *)
}

(* Seeded input generator, independent of the simulator's own RNG. *)
let rng seed salt = Engine.Rng.create ((seed * 1_000_003) lxor salt)

let patterned n ~seed =
  let b = Engine.Bytebuf.create n in
  Engine.Bytebuf.fill_pattern b ~seed;
  b

let us_of_ns ns = float_of_int ns /. 1e3

let mb_s bytes ns = if ns <= 0 then 0.0 else float_of_int bytes /. float_of_int ns *. 1e3
