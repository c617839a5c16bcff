module Bb = Engine.Bytebuf
module Sim = Engine.Sim
module Proc = Engine.Proc

(* ---------- Heap ---------- *)

let test_heap_basic () =
  let h = Engine.Heap.create () in
  Tutil.check_bool "empty" true (Engine.Heap.is_empty h);
  Engine.Heap.push h ~prio:5 "five";
  Engine.Heap.push h ~prio:1 "one";
  Engine.Heap.push h ~prio:3 "three";
  Tutil.check_int "length" 3 (Engine.Heap.length h);
  Tutil.check_int "peek" 1 (Option.get (Engine.Heap.peek_prio h));
  let order = List.init 3 (fun _ -> snd (Option.get (Engine.Heap.pop h))) in
  Alcotest.(check (list string)) "order" [ "one"; "three"; "five" ] order;
  Tutil.check_bool "empty again" true (Engine.Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Engine.Heap.create () in
  List.iter (fun v -> Engine.Heap.push h ~prio:7 v) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> snd (Option.get (Engine.Heap.pop h))) in
  Alcotest.(check (list int)) "fifo on equal priorities" [ 1; 2; 3; 4 ] order

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in nondecreasing priority order"
    ~count:200
    QCheck.(list small_int)
    (fun prios ->
       let h = Engine.Heap.create () in
       List.iter (fun p -> Engine.Heap.push h ~prio:p p) prios;
       let rec drain acc =
         match Engine.Heap.pop h with
         | None -> List.rev acc
         | Some (p, _) -> drain (p :: acc)
       in
       let out = drain [] in
       out = List.sort compare prios)

(* Words allocated by [calls] runs of [f], less those of an empty run. *)
let minor_words_per_call f =
  let calls = 1000 in
  let run g =
    g ();
    let w0 = Gc.minor_words () in
    for _ = 1 to calls do
      g ()
    done;
    Gc.minor_words () -. w0
  in
  (run f -. run (fun () -> ())) /. float_of_int calls

(* The heap against a sorted-list model: every operation's result, and
   the length after it, must match. Each pushed value is its insertion
   sequence, and the model keeps the (prio, seq) pairs sorted, so its head
   is the minimum and the prefix that shares the head's priority is the
   same-instant bucket in insertion order. Runs start from fills that sit
   on and across the capacity doublings (16, 32, 64, ... 8192). *)
type heap_op =
  | Push of int
  | Pop
  | Pop_min
  | Min_count
  | Pop_nth of int

let heap_op_gen ~prios =
  QCheck.Gen.(
    frequency
      [ (4, map (fun p -> Push p) (int_bound prios));
        (2, return Pop);
        (2, return Pop_min);
        (1, return Min_count);
        (2, map (fun n -> Pop_nth n) (int_range (-1) 6)) ])

let show_heap_op = function
  | Push p -> Printf.sprintf "push %d" p
  | Pop -> "pop"
  | Pop_min -> "pop_min"
  | Min_count -> "min_count"
  | Pop_nth n -> Printf.sprintf "pop_nth %d" n

let heap_case_gen =
  QCheck.Gen.(
    oneofl [ 0; 1; 63; 64; 65; 4_097 ] >>= fun fill ->
    (* A small priority range makes large same-priority buckets. *)
    oneofl [ 1; 3; 50; 1_000_000 ] >>= fun prios ->
    int >>= fun seed ->
    list_size (int_bound 300) (heap_op_gen ~prios) >>= fun ops ->
    return (fill, prios, seed, ops))

let heap_case =
  QCheck.make heap_case_gen ~print:(fun (fill, prios, seed, ops) ->
      Printf.sprintf "fill %d, prios < %d, seed %d: %s" fill prios seed
        (String.concat "; " (List.map show_heap_op ops)))

let prop_heap_model =
  QCheck.Test.make ~name:"heap matches a sorted-list model" ~count:300
    heap_case (fun (fill, prios, seed, ops) ->
        let module H = Engine.Heap in
        let h = H.create () in
        let next = ref 0 in
        let model = ref [] in
        let push p =
          let seq = !next in
          incr next;
          H.push h ~prio:p seq;
          seq
        in
        let rng = Random.State.make [| seed |] in
        model :=
          List.sort compare
            (List.init fill (fun _ ->
                 let p = Random.State.int rng prios in
                 (p, push p)));
        let insert p seq =
          let rec go = function
            | (q, _) as e :: rest when q <= p -> e :: go rest
            | l -> (p, seq) :: l
          in
          model := go !model
        in
        let bucket () =
          match !model with
          | [] -> []
          | (p, _) :: _ -> List.filter (fun (q, _) -> q = p) !model
        in
        let remove e = model := List.filter (fun x -> x <> e) !model in
        let step op =
          (match op with
           | Push p -> insert p (push p)
           | Pop ->
             (match (H.pop h, !model) with
              | None, [] -> ()
              | Some got, (e :: _) when got = e -> remove e
              | _ -> failwith "pop")
           | Pop_min ->
             (match !model with
              | [] ->
                (match H.pop_min h with
                 | _ -> failwith "pop_min on empty did not raise"
                 | exception Invalid_argument _ -> ())
              | ((p, _) as e) :: _ ->
                if H.min_prio h <> p then failwith "min_prio";
                if H.pop_min h <> snd e then failwith "pop_min";
                remove e)
           | Min_count ->
             if H.min_count h <> List.length (bucket ()) then
               failwith "min_count"
           | Pop_nth n ->
             (match (H.pop_min_nth h n, bucket ()) with
              | None, [] -> ()
              | Some got, b ->
                let k = max 0 (min n (List.length b - 1)) in
                let e = List.nth b k in
                if got <> e then failwith "pop_min_nth";
                remove e
              | None, _ -> failwith "pop_min_nth: None on a non-empty heap"));
          if H.length h <> List.length !model then failwith "length"
        in
        List.iter step ops;
        (* Drain: what is left comes out in model order. *)
        List.iter (fun e -> if H.pop h <> Some e then failwith "drain") !model;
        H.is_empty h)

(* A value the heap has handed back, by any pop, must not stay reachable
   from the heap, drained or not. *)
let test_heap_no_retention () =
  let module H = Engine.Heap in
  let h = H.create () in
  let n = 6 in
  let w = Weak.create n in
  let[@inline never] fill () =
    for i = 0 to n - 1 do
      let v = Bytes.make 16 (Char.chr (65 + i)) in
      Weak.set w i (Some v);
      (* prios 0 0 0 1 1 1 *)
      H.push h ~prio:(i / 3) v
    done
  in
  fill ();
  ignore (Sys.opaque_identity (H.pop h));
  ignore (Sys.opaque_identity (H.pop_min_nth h 1));
  Gc.full_major ();
  let live () = List.init n (Weak.check w) in
  Alcotest.(check (list bool)) "popped values collected, queued ones kept"
    [ false; true; false; true; true; true ] (live ());
  while not (H.is_empty h) do
    ignore (Sys.opaque_identity (H.pop_min h))
  done;
  Gc.full_major ();
  Alcotest.(check (list bool)) "drained heap keeps nothing"
    (List.init n (fun _ -> false)) (live ());
  (* The heap itself must outlive the collections above. *)
  Tutil.check_int "still empty" 0 (H.length (Sys.opaque_identity h))

(* The simulator's steady state at the edge gateway's depth: once the
   capacity is reached, a push plus a pop allocates nothing. *)
let test_heap_allocates_nothing () =
  let module H = Engine.Heap in
  let h = H.create () in
  for i = 0 to 19_999 do
    H.push h ~prio:(i * 7919 mod 20_000) i
  done;
  let next = ref 0 in
  Alcotest.(check (float 0.)) "push + min_prio + pop_min: words per call" 0.
    (minor_words_per_call (fun () ->
         next := (!next + 7919) mod 40_000;
         H.push h ~prio:(H.min_prio h + !next) !next;
         ignore (Sys.opaque_identity (H.pop_min h))));
  Tutil.check_int "depth unchanged" 20_000 (H.length h)

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Engine.Rng.create 7 and b = Engine.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Engine.Rng.int64 a)
      (Engine.Rng.int64 b)
  done

let test_rng_bounds () =
  let r = Engine.Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Engine.Rng.int r 10 in
    Tutil.check_bool "in range" true (v >= 0 && v < 10);
    let f = Engine.Rng.float r 2.5 in
    Tutil.check_bool "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_bool_bias () =
  let r = Engine.Rng.create 3 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Engine.Rng.bool r 0.25 then incr hits
  done;
  let ratio = float_of_int !hits /. float_of_int n in
  Tutil.check_bool "bernoulli(0.25) frequency" true
    (ratio > 0.22 && ratio < 0.28)

let test_rng_split_independent () =
  let r = Engine.Rng.create 9 in
  let s = Engine.Rng.split r in
  Tutil.check_bool "split streams differ" true
    (Engine.Rng.int64 r <> Engine.Rng.int64 s)

(* ---------- Sim ---------- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let trace = ref [] in
  Sim.at sim 30 (fun () -> trace := 30 :: !trace);
  Sim.at sim 10 (fun () -> trace := 10 :: !trace);
  Sim.at sim 20 (fun () -> trace := 20 :: !trace);
  Sim.run sim;
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] (List.rev !trace);
  Tutil.check_int "clock at last event" 30 (Sim.now sim)

let test_sim_same_time_fifo () =
  let sim = Sim.create () in
  let trace = ref [] in
  for i = 1 to 5 do
    Sim.at sim 42 (fun () -> trace := i :: !trace)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo at same instant" [ 1; 2; 3; 4; 5 ]
    (List.rev !trace)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref [] in
  Sim.at sim 100 (fun () -> fired := 100 :: !fired);
  Sim.at sim 200 (fun () -> fired := 200 :: !fired);
  Sim.run sim ~until:150;
  Alcotest.(check (list int)) "only first fired" [ 100 ] !fired;
  Tutil.check_int "clock clamped" 150 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check (list int)) "rest fired on resume" [ 200; 100 ] !fired

let test_sim_past_raises () =
  let sim = Sim.create () in
  Sim.at sim 50 (fun () ->
      Alcotest.check_raises "past scheduling rejected"
        (Invalid_argument "Sim.at: time 10 is in the past (now 50)")
        (fun () -> Sim.at sim 10 ignore));
  Sim.run sim

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let hits = ref 0 in
  Sim.after sim 10 (fun () ->
      Sim.after sim 10 (fun () ->
          incr hits;
          Tutil.check_int "nested time" 20 (Sim.now sim)));
  Sim.run sim;
  Tutil.check_int "nested fired" 1 !hits

(* Exit-clock discipline (see Sim.run's doc): every exit is monotone.
   The old until-branch assigned the clock unconditionally, so resuming a
   stopped simulator with a smaller [until] rewound virtual time. *)
let test_sim_exit_clock_monotone () =
  let sim = Sim.create () in
  Sim.at sim 100 (fun () -> Sim.stop sim);
  Sim.at sim 300 (fun () -> ());
  Sim.run sim;
  Tutil.check_int "stop freezes at the stopping event" 100 (Sim.now sim);
  Sim.run sim ~until:50;
  Tutil.check_int "until below the clock does not rewind" 100 (Sim.now sim);
  Sim.run sim ~until:200;
  Tutil.check_int "until ahead advances the idle clock" 200 (Sim.now sim);
  Sim.run sim ~until:150;
  Tutil.check_int "still no rewind" 200 (Sim.now sim);
  Sim.run sim;
  Tutil.check_int "drained at the last event" 300 (Sim.now sim)

(* Padico.reset (Lifecycle) must drop undelivered events: a stopped
   scenario's stale timers would otherwise fire into the next scenario's
   registries through any shared clock. *)
let test_reset_clears_pending_events () =
  let sim = Sim.create () in
  Sim.after sim 10 (fun () -> ());
  Sim.after sim 20 (fun () -> ());
  Tutil.check_int "events queued" 2 (Sim.pending sim);
  Engine.Lifecycle.reset_registries ();
  Tutil.check_int "reset dropped undelivered events" 0 (Sim.pending sim)

let test_sim_stop () =
  let sim = Sim.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    Sim.after sim 1 (fun () ->
        incr count;
        if !count = 3 then Sim.stop sim)
  done;
  Sim.run sim;
  Tutil.check_int "stopped after 3" 3 !count;
  Sim.run sim;
  Tutil.check_int "resumable" 10 !count

(* ---------- Proc ---------- *)

let test_proc_sleep () =
  let sim = Sim.create () in
  let t_end = ref 0 in
  let h =
    Proc.spawn sim (fun () ->
        Proc.sleep sim 100;
        Proc.sleep sim 200;
        t_end := Sim.now sim)
  in
  Sim.run sim;
  Tutil.assert_done h;
  Tutil.check_int "slept 300" 300 !t_end

let test_proc_ivar () =
  let sim = Sim.create () in
  let iv = Proc.Ivar.create () in
  let got = ref 0 in
  let reader =
    Proc.spawn sim (fun () -> got := Proc.Ivar.read iv)
  in
  let _writer =
    Proc.spawn sim (fun () ->
        Proc.sleep sim 50;
        Proc.Ivar.fill iv 42)
  in
  Sim.run sim;
  Tutil.assert_done reader;
  Tutil.check_int "ivar value" 42 !got;
  Tutil.check_bool "filled" true (Proc.Ivar.is_filled iv);
  Alcotest.check_raises "double fill"
    (Invalid_argument "Ivar.fill: already filled") (fun () ->
      Proc.Ivar.fill iv 1)

let test_proc_ivar_read_after_fill () =
  let sim = Sim.create () in
  let iv = Proc.Ivar.create () in
  Proc.Ivar.fill iv "x";
  let got = ref "" in
  let h = Proc.spawn sim (fun () -> got := Proc.Ivar.read iv) in
  Sim.run sim;
  Tutil.assert_done h;
  Tutil.check_string "immediate read" "x" !got

let test_proc_mailbox () =
  let sim = Sim.create () in
  let mb = Proc.Mailbox.create () in
  let received = ref [] in
  let consumer =
    Proc.spawn sim (fun () ->
        for _ = 1 to 3 do
          received := Proc.Mailbox.recv mb :: !received
        done)
  in
  let _producer =
    Proc.spawn sim (fun () ->
        Proc.Mailbox.send mb 1;
        Proc.sleep sim 10;
        Proc.Mailbox.send mb 2;
        Proc.Mailbox.send mb 3)
  in
  Sim.run sim;
  Tutil.assert_done consumer;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !received)

let test_proc_semaphore_mutex () =
  let sim = Sim.create () in
  let sem = Proc.Semaphore.create 1 in
  let inside = ref 0 in
  let max_inside = ref 0 in
  let worker () =
    Proc.Semaphore.acquire sem;
    incr inside;
    if !inside > !max_inside then max_inside := !inside;
    Proc.sleep sim 10;
    decr inside;
    Proc.Semaphore.release sem
  in
  let hs = List.init 5 (fun i -> Proc.spawn sim ~name:(string_of_int i) worker) in
  Sim.run sim;
  List.iter Tutil.assert_done hs;
  Tutil.check_int "mutual exclusion" 1 !max_inside

let test_proc_join () =
  let sim = Sim.create () in
  let child =
    Proc.spawn sim (fun () -> Proc.sleep sim 100)
  in
  let after_join = ref 0 in
  let parent =
    Proc.spawn sim (fun () ->
        Proc.join sim child;
        after_join := Sim.now sim)
  in
  Sim.run sim;
  Tutil.assert_done parent;
  Tutil.check_int "joined after child" 100 !after_join

let test_proc_join_error_propagates () =
  let sim = Sim.create () in
  let child = Proc.spawn sim (fun () -> failwith "boom") in
  let caught = ref false in
  let parent =
    Proc.spawn sim (fun () ->
        try Proc.join sim child with Failure _ -> caught := true)
  in
  Sim.run sim;
  Tutil.assert_done parent;
  Tutil.check_bool "exception re-raised in joiner" true !caught

(* ---------- Bytebuf ---------- *)

let test_bytebuf_sub_and_blit () =
  let b = Tutil.pattern_buf ~seed:1 64 in
  let s = Bb.sub b 16 32 in
  Tutil.check_int "sub length" 32 (Bb.length s);
  Tutil.check_bool "sub shares data" true (Bb.get s 0 = Bb.get b 16);
  let d = Bb.create 32 in
  Bb.blit ~src:s ~src_off:0 ~dst:d ~dst_off:0 ~len:32;
  Tutil.check_bool "blit copies" true (Bb.equal s d);
  Alcotest.check_raises "oob sub"
    (Invalid_argument "Bytebuf.sub: off=60 len=10 in buffer of 64") (fun () ->
      ignore (Bb.sub b 60 10))

let test_bytebuf_concat_split () =
  let a = Tutil.pattern_buf ~seed:2 10 in
  let b = Tutil.pattern_buf ~seed:3 20 in
  let c = Bb.concat [ a; b ] in
  Tutil.check_int "concat length" 30 (Bb.length c);
  let x, y = Bb.split c 10 in
  Tutil.check_bool "split left" true (Bb.equal a x);
  Tutil.check_bool "split right" true (Bb.equal b y)

let test_bytebuf_ints () =
  let b = Bb.create 32 in
  Bb.set_u16 b 0 0xBEEF;
  Bb.set_u32 b 4 0xDEAD1234;
  Bb.set_i64 b 8 (-123456789L);
  Bb.set_u8 b 16 0xAB;
  Tutil.check_int "u16" 0xBEEF (Bb.get_u16 b 0);
  Tutil.check_int "u32" 0xDEAD1234 (Bb.get_u32 b 4);
  Alcotest.(check int64) "i64" (-123456789L) (Bb.get_i64 b 8);
  Tutil.check_int "u8" 0xAB (Bb.get_u8 b 16)

let test_bytebuf_copy_counter () =
  Bb.reset_copy_counter ();
  let a = Bb.create 100 in
  let b = Bb.copy a in
  ignore b;
  Tutil.check_int "counted copy" 100 (Bb.copies_performed ());
  let c = Bb.create 100 in
  Bb.blit_dma ~src:a ~src_off:0 ~dst:c ~dst_off:0 ~len:100;
  Tutil.check_int "dma not counted" 100 (Bb.copies_performed ())

let prop_bytebuf_string_roundtrip =
  QCheck.Test.make ~name:"of_string/to_string roundtrip" ~count:200
    QCheck.string (fun s -> Bb.to_string (Bb.of_string s) = s)

let prop_bytebuf_checksum_sensitive =
  QCheck.Test.make ~name:"checksum changes when a byte changes" ~count:100
    QCheck.(string_of_size Gen.(int_range 1 200))
    (fun s ->
       let b = Bb.of_string s in
       let before = Bb.checksum b in
       let i = String.length s / 2 in
       Bb.set_u8 b i (Bb.get_u8 b i lxor 0x5a);
       Bb.checksum b <> before)

(* ---------- Bytebuf word kernels against byte-at-a-time references ---------- *)

let ref_equal a b =
  Bb.length a = Bb.length b
  &&
  let same = ref true in
  for i = 0 to Bb.length a - 1 do
    if Bb.get a i <> Bb.get b i then same := false
  done;
  !same

let ref_checksum b =
  let h = ref 0x3bf29ce484222325 in
  for i = 0 to Bb.length b - 1 do
    h := (!h lxor Bb.get_u8 b i) * 0x100000001b3
  done;
  !h land max_int

(* Little-endian, [width] bytes at [i], one byte at a time. *)
let ref_get b i width =
  let v = ref 0L in
  for k = width - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Bb.get_u8 b (i + k)))
  done;
  !v

let ref_set b i width v =
  for k = 0 to width - 1 do
    Bb.set_u8 b (i + k)
      (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xffL))
  done

(* The codecs under test, widened to int64 so one property covers all. *)
let codecs =
  [ ("u16", 2, (fun b i -> Int64.of_int (Bb.get_u16 b i)),
     fun b i v -> Bb.set_u16 b i (Int64.to_int v));
    ("u32", 4, (fun b i -> Int64.of_int (Bb.get_u32 b i)),
     fun b i v -> Bb.set_u32 b i (Int64.to_int v));
    ("i64", 8, Bb.get_i64, Bb.set_i64) ]

(* A [len]-byte slice at odd offset [off] of a larger random buffer. *)
let slice ~seed ~off len =
  let big = Bb.create (off + len + 5) in
  Bb.fill_random big (Engine.Rng.create seed);
  Bb.sub big off len

let kernel_case =
  QCheck.(
    make
      ~print:(fun (len, oa, ob, seed) ->
          Printf.sprintf "len=%d off_a=%d off_b=%d seed=%d" len oa ob seed)
      Gen.(
        quad
          (oneof [ int_range 0 70; int_range 4095 4097 ])
          (map (fun k -> (2 * k) + 1) (int_range 0 7))
          (map (fun k -> (2 * k) + 1) (int_range 0 7))
          small_nat))

let flip b i = Bb.set_u8 b i (Bb.get_u8 b i lxor 0x5a)

let prop_equal_matches_reference =
  QCheck.Test.make ~name:"equal matches the byte-wise reference" ~count:300
    kernel_case (fun (len, oa, ob, seed) ->
        let a = slice ~seed ~off:oa len in
        let b = slice ~seed:(seed + 1) ~off:ob len in
        Bb.blit_dma ~src:a ~src_off:0 ~dst:b ~dst_off:0 ~len;
        let agree () = Bb.equal a b = ref_equal a b && Bb.equal b a = Bb.equal a b in
        Bb.equal a b && agree ()
        (* first byte, both sides of the first word boundary, the last
           tail byte and the middle *)
        && List.for_all
             (fun i ->
                i < 0 || i >= len
                ||
                (flip b i;
                 let ok = (not (Bb.equal a b)) && agree () in
                 flip b i;
                 ok))
             [ 0; 7; 8; len / 2; len - 1 ]
        && (len = 0 || not (Bb.equal a (Bb.sub a 0 (len - 1)))))

let prop_checksum_matches_reference =
  QCheck.Test.make ~name:"checksum matches the byte-wise reference" ~count:300
    kernel_case (fun (len, oa, _, seed) ->
        let b = slice ~seed ~off:oa len in
        Bb.checksum b = ref_checksum b
        && Bb.checksum b = Bb.checksum (Bb.of_string (Bb.to_string b)))

let prop_copy_matches_reference =
  QCheck.Test.make ~name:"copy is private, exact and counted" ~count:300
    kernel_case (fun (len, oa, _, seed) ->
        let b = slice ~seed ~off:oa len in
        let before = Bb.to_string b in
        let c0 = Bb.copies_performed () in
        let c = Bb.copy b in
        let counted = Bb.copies_performed () - c0 in
        counted = len && Bb.length c = len
        && Bb.to_string c = before
        && (len = 0 || (flip c 0; flip c (len - 1); Bb.to_string b = before)))

let prop_codecs_match_reference =
  QCheck.Test.make ~name:"u16/u32/i64 codecs match the byte-wise reference"
    ~count:300 kernel_case (fun (len, oa, _, seed) ->
        let b = slice ~seed ~off:oa len in
        let rng = Engine.Rng.create (seed + 7) in
        List.for_all
          (fun (_, width, get, set) ->
             let mask =
               if width = 8 then (-1L)
               else Int64.pred (Int64.shift_left 1L (8 * width))
             in
             List.for_all
               (fun i ->
                  i < 0 || i > len - width
                  ||
                  let v = Engine.Rng.int64 rng in
                  let x = Bb.copy b and y = Bb.copy b in
                  set x i v;
                  ref_set y i width v;
                  get b i = ref_get b i width
                  && Bb.to_string x = Bb.to_string y
                  && get x i = Int64.logand v mask)
               [ 0; 1; 3; 7; 8; len - width - 1; len - width ])
          codecs)

let test_bytebuf_set_out_of_range () =
  (* A multi-byte store that does not fit raises before writing a byte. *)
  let b = Bb.sub (Tutil.pattern_buf ~seed:9 40) 3 16 in
  let before = Bb.to_string b in
  List.iter
    (fun (name, width, get, set) ->
       List.iter
         (fun i ->
            let what = Printf.sprintf "%s at %d" name i in
            (match set b i (-1L) with
             | () -> Alcotest.failf "set_%s did not raise" what
             | exception Invalid_argument _ -> ());
            Tutil.check_string ("unchanged after set_" ^ what) before
              (Bb.to_string b);
            match get b i with
            | _ -> Alcotest.failf "get_%s did not raise" what
            | exception Invalid_argument _ -> ())
         [ -1; 16 - width + 1; 16 - (width / 2); 15; 16 ])
    codecs

let test_bytebuf_kernels_allocate_nothing () =
  let a = slice ~seed:1 ~off:3 4096 in
  let b = Bb.copy a in
  Alcotest.(check (float 0.)) "equal: words per call" 0.
    (minor_words_per_call (fun () -> ignore (Sys.opaque_identity (Bb.equal a b))));
  Alcotest.(check (float 0.)) "checksum: words per call" 0.
    (minor_words_per_call (fun () ->
         ignore (Sys.opaque_identity (Bb.checksum a))))

(* ---------- Stats ---------- *)

let test_stats_summary () =
  let s = Engine.Stats.Summary.create () in
  List.iter (Engine.Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Tutil.check_int "n" 4 (Engine.Stats.Summary.n s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Engine.Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Engine.Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Engine.Stats.Summary.max s);
  Tutil.check_bool "stddev" true
    (abs_float (Engine.Stats.Summary.stddev s -. 1.2909944487) < 1e-6)

let test_stats_histogram () =
  let h = Engine.Stats.Histogram.create () in
  List.iter (Engine.Stats.Histogram.add h) [ 1; 2; 4; 8; 1000 ];
  Tutil.check_int "count" 5 (Engine.Stats.Histogram.count h);
  Tutil.check_bool "p50 small" true (Engine.Stats.Histogram.percentile h 0.5 < 8);
  Tutil.check_bool "p100 covers max" true
    (Engine.Stats.Histogram.percentile h 1.0 >= 1000)

(* Bucket i of the histogram holds values of bit-width i, i.e. [2^(i-1),
   2^i); [percentile] answers the inclusive upper bound 2^i - 1 of the
   bucket reaching the requested rank. These tests pin that contract at the
   boundaries. *)
let test_stats_histogram_powers_of_two () =
  let module H = Engine.Stats.Histogram in
  (* A power of two 2^k has bit-width k+1, so its reported upper bound is
     2^(k+1) - 1 — one bucket above 2^k - 1. *)
  List.iter
    (fun k ->
       let h = H.create () in
       H.add h (1 lsl k);
       Tutil.check_int
         (Printf.sprintf "p100 of singleton 2^%d" k)
         ((1 lsl (k + 1)) - 1)
         (H.percentile h 1.0))
    [ 0; 1; 4; 10; 20 ];
  (* One below a power of two stays in the lower bucket: its bound is
     exactly itself. *)
  let h = H.create () in
  H.add h 1023;
  Tutil.check_int "p100 of 1023" 1023 (H.percentile h 1.0);
  (* Zero has bit-width 0: bucket 0, bound 0. *)
  let h = H.create () in
  H.add h 0;
  Tutil.check_int "p100 of 0" 0 (H.percentile h 1.0);
  (* Negative values are clamped to bucket 0 rather than crashing. *)
  let h = H.create () in
  H.add h (-5);
  Tutil.check_int "negative clamps to 0" 0 (H.percentile h 1.0)

let test_stats_histogram_empty () =
  let module H = Engine.Stats.Histogram in
  let h = H.create () in
  Tutil.check_int "count" 0 (H.count h);
  Tutil.check_int "p0" 0 (H.percentile h 0.0);
  Tutil.check_int "p50" 0 (H.percentile h 0.5);
  Tutil.check_int "p100" 0 (H.percentile h 1.0);
  Tutil.check_string "pp prints nothing" ""
    (Format.asprintf "%a" H.pp h)

let test_stats_histogram_p0_p100 () =
  let module H = Engine.Stats.Histogram in
  let h = H.create () in
  List.iter (H.add h) [ 1; 6; 1000 ];
  (* q = 0 still answers the lowest occupied bucket (rank clamps to 1). *)
  Tutil.check_int "p0 = first bucket bound" 1 (H.percentile h 0.0);
  (* q = 1 answers the highest occupied bucket: 1000 has bit-width 10. *)
  Tutil.check_int "p100 = last bucket bound" 1023 (H.percentile h 1.0);
  (* Ranks are inclusive: with 3 samples, q = 1/3 is the first sample. *)
  Tutil.check_int "p33 inclusive" 1 (H.percentile h (1.0 /. 3.0));
  Tutil.check_int "p34 next bucket" 7 (H.percentile h 0.34)

let test_stats_histogram_pp () =
  let module H = Engine.Stats.Histogram in
  let h = H.create () in
  List.iter (H.add h) [ 1; 3; 3; 1000 ];
  let out = Format.asprintf "%a" H.pp h in
  (* Buckets print as exclusive upper bounds with their counts. *)
  Tutil.check_string "bucket lines" "[<2] 1\n[<4] 2\n[<1024] 1\n" out

let test_stats_bandwidth () =
  Alcotest.(check (float 1e-9)) "100MB in 1s" 100.0
    (Engine.Stats.bandwidth_mb_s ~bytes_transferred:100_000_000
       ~elapsed_ns:1_000_000_000)

let () =
  Alcotest.run "engine"
    [ ("heap",
       [ Alcotest.test_case "basic order" `Quick test_heap_basic;
         Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
         Alcotest.test_case "popped values are not retained" `Quick
           test_heap_no_retention;
         Alcotest.test_case "push+pop at depth 20k allocates nothing" `Quick
           test_heap_allocates_nothing ]);
      Tutil.qsuite "heap-props" [ prop_heap_sorts; prop_heap_model ];
      ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         Alcotest.test_case "bounds" `Quick test_rng_bounds;
         Alcotest.test_case "bernoulli bias" `Quick test_rng_bool_bias;
         Alcotest.test_case "split" `Quick test_rng_split_independent ]);
      ("sim",
       [ Alcotest.test_case "ordering" `Quick test_sim_ordering;
         Alcotest.test_case "same-time fifo" `Quick test_sim_same_time_fifo;
         Alcotest.test_case "until" `Quick test_sim_until;
         Alcotest.test_case "past raises" `Quick test_sim_past_raises;
         Alcotest.test_case "nested" `Quick test_sim_nested_scheduling;
         Alcotest.test_case "stop/resume" `Quick test_sim_stop;
         Alcotest.test_case "exit clock monotone" `Quick
           test_sim_exit_clock_monotone;
         Alcotest.test_case "reset clears events" `Quick
           test_reset_clears_pending_events ]);
      ("proc",
       [ Alcotest.test_case "sleep" `Quick test_proc_sleep;
         Alcotest.test_case "ivar" `Quick test_proc_ivar;
         Alcotest.test_case "ivar pre-filled" `Quick
           test_proc_ivar_read_after_fill;
         Alcotest.test_case "mailbox" `Quick test_proc_mailbox;
         Alcotest.test_case "semaphore mutex" `Quick test_proc_semaphore_mutex;
         Alcotest.test_case "join" `Quick test_proc_join;
         Alcotest.test_case "join error" `Quick test_proc_join_error_propagates
       ]);
      ("bytebuf",
       [ Alcotest.test_case "sub/blit" `Quick test_bytebuf_sub_and_blit;
         Alcotest.test_case "concat/split" `Quick test_bytebuf_concat_split;
         Alcotest.test_case "integer accessors" `Quick test_bytebuf_ints;
         Alcotest.test_case "copy counter" `Quick test_bytebuf_copy_counter;
         Alcotest.test_case "out-of-range set writes nothing" `Quick
           test_bytebuf_set_out_of_range;
         Alcotest.test_case "equal and checksum allocate nothing" `Quick
           test_bytebuf_kernels_allocate_nothing ]);
      Tutil.qsuite "bytebuf-props"
        [ prop_bytebuf_string_roundtrip; prop_bytebuf_checksum_sensitive;
          prop_equal_matches_reference; prop_checksum_matches_reference;
          prop_copy_matches_reference; prop_codecs_match_reference ];
      ("stats",
       [ Alcotest.test_case "summary" `Quick test_stats_summary;
         Alcotest.test_case "histogram" `Quick test_stats_histogram;
         Alcotest.test_case "histogram powers of two" `Quick
           test_stats_histogram_powers_of_two;
         Alcotest.test_case "histogram empty" `Quick test_stats_histogram_empty;
         Alcotest.test_case "histogram p0/p100" `Quick
           test_stats_histogram_p0_p100;
         Alcotest.test_case "histogram pp" `Quick test_stats_histogram_pp;
         Alcotest.test_case "bandwidth" `Quick test_stats_bandwidth ]);
    ]
