type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  { state = Int64.mul (Int64.of_int (seed + 1)) 0x2545F4914F6CDD1DL }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = int64 t in
  { state = s }

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the conversion to OCaml's 63-bit int stays positive. *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  (* 53 random bits scaled to [0,1). *)
  x *. (v /. 9007199254740992.0)

let bool t p = float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u
