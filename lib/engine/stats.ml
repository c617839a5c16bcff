module Counter = struct
  type t = { name : string; mutable value : int }

  let create name = { name; value = 0 }
  let incr t = t.value <- t.value + 1
  let add t n = t.value <- t.value + n
  let value t = t.value
  let name t = t.name
  let reset t = t.value <- 0
end

module Summary = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; min_v = infinity; max_v = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x

  let n t = t.n
  let mean t = t.mean

  let stddev t =
    if t.n < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.n - 1))

  let min t = t.min_v
  let max t = t.max_v
end

module Histogram = struct
  (* Bucket i holds samples whose value's bit-width is i, i.e. in
     [2^(i-1), 2^i). *)
  type t = { buckets : int array; mutable total : int }

  let nbuckets = 63

  let create () = { buckets = Array.make nbuckets 0; total = 0 }

  let bucket_of v =
    let v = if v < 0 then 0 else v in
    let rec width acc v = if v = 0 then acc else width (acc + 1) (v lsr 1) in
    Stdlib.min (nbuckets - 1) (width 0 v)

  let add t v =
    let b = bucket_of v in
    t.buckets.(b) <- t.buckets.(b) + 1;
    t.total <- t.total + 1

  let count t = t.total

  let percentile t q =
    if t.total = 0 then 0
    else begin
      let target = int_of_float (ceil (q *. float_of_int t.total)) in
      let target = if target < 1 then 1 else target in
      let acc = ref 0 in
      let result = ref 0 in
      (try
         for i = 0 to nbuckets - 1 do
           acc := !acc + t.buckets.(i);
           if !acc >= target then begin
             result := (1 lsl i) - 1;
             raise Exit
           end
         done
       with Exit -> ());
      !result
    end

  let pp fmt t =
    Format.fprintf fmt "@[<v>";
    for i = 0 to nbuckets - 1 do
      if t.buckets.(i) > 0 then
        Format.fprintf fmt "[<%d] %d@," (1 lsl i) t.buckets.(i)
    done;
    Format.fprintf fmt "@]"
end

let bandwidth_mb_s ~bytes_transferred ~elapsed_ns =
  if elapsed_ns <= 0 then 0.0
  else float_of_int bytes_transferred /. (float_of_int elapsed_ns /. 1e9) /. 1e6
