type kind = Virtual | Monotonic

type t = {
  kind : kind;
  id : int;
  now : unit -> int;
  schedule : int -> (unit -> unit) -> unit;
  arm_ : int -> (unit -> unit) -> (unit -> unit);
}

type timer = { mutable cancel_ : (unit -> unit) option }

let next_id = ref 0

let make ~kind ~now ~schedule ~arm =
  incr next_id;
  { kind; id = !next_id; now; schedule; arm_ = arm }

let kind t = t.kind
let id t = t.id
let is_virtual t = t.kind = Virtual
let now t = t.now ()
let after t dt f = t.schedule dt f
let at t time f = t.schedule (time - t.now ()) f
let arm t dt f = { cancel_ = Some (t.arm_ dt f) }

let cancel h =
  match h.cancel_ with
  | None -> ()
  | Some c ->
    h.cancel_ <- None;
    c ()
