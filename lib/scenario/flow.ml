(* E11 flow control: a fast producer streams [total] bytes into a
   consumer that reads one [chunk] every [delay_ns], over the SAN+LAN
   pair. [config] sets the Resilient windows and watermarks;
   [credit_window] > 0 also arms MadIO per-flow credits on the SAN (the
   simulator only: on the host backend the SAN pair rides SysIO streams).
   A fault [plan] is armed when the session first comes up. *)

module Bb = Engine.Bytebuf
module Vl = Vlink.Vl
module Madio = Netaccess.Madio

type result = {
  goodput_mb_s : float;
  elapsed_ns : int;  (* connected -> last byte consumed *)
  stats : Resilient.stats;  (* the consumer's session *)
  credit_stalls : int;  (* producer-side MadIO credit stalls *)
  grid : Padico.t;
  a : Simnet.Node.t;  (* consumer *)
  b : Simnet.Node.t;  (* producer *)
  san : Simnet.Segment.t;
}

(* The producer lives on the listening node so the measuring side (the
   client conn) is the consumer and [Resilient.stats] reports its exact
   receive-queue high-water mark. *)
let slow_consumer ~seed ~backend ~config ~credit_window ~plan ~total ~chunk
    ~delay_ns =
  let grid, a, b, san, _ = Harness.san_lan_pair ~seed ~backend in
  let sim = backend = Padico.Sim in
  if credit_window > 0 && sim then begin
    Madio.set_credit_window (Padico.madio grid a san) credit_window;
    Madio.set_credit_window (Padico.madio grid b san) credit_window
  end;
  (* Producer: full speed, but through the EAGAIN discipline — a write
     that would overrun the windows parks on [wait_writable] instead of
     growing a queue. *)
  Resilient.listen ~config grid b ~port:9100 (fun vl ->
      ignore
        (Padico.spawn grid b ~name:"producer" (fun () ->
             let sent = ref 0 in
             while !sent < total do
               let n = min chunk (total - !sent) in
               match Personalities.Vio.try_write vl (Bb.create n) with
               | `Ok k -> sent := !sent + k
               | `Again -> Personalities.Vio.wait_writable vl
             done;
             (* Hold the link until the consumer is done, then release
                it: the host reactor only quiesces once every socket is
                closed on both sides. *)
             (match Vl.await (Vl.post_read vl (Bb.create 1)) with
              | Vl.Done _ | Vl.Eof | Vl.Again | Vl.Error _ -> ());
             Vl.close vl)));
  let conn = Resilient.connect ~config grid ~src:a ~dst:b ~port:9100 in
  (* Fault plans are authored relative to session establishment, which on
     the host backend lands at an unpredictable wall-clock offset (grid
     setup plus a real-socket HELLO exchange). Arm them when the session
     actually comes up — once: a failover re-establishes the session, and
     re-arming would replay the fault against the fallback link. *)
  (match plan with
   | [] -> ()
   | plan ->
     let armed = ref false in
     Resilient.on_established conn (fun () ->
         if not !armed then begin
           armed := true;
           ignore
             (Padico_fault.Inject.apply ~base_ns:(Padico.now grid)
                (Padico.net grid) plan)
         end));
  let cvl = Resilient.vl conn in
  let t0 = ref 0 and t1 = ref 0 in
  let h =
    Padico.spawn grid a ~name:"consumer" (fun () ->
        (match Vl.await_connected cvl with
         | Ok () -> ()
         | Error m -> failwith ("connect: " ^ m));
        t0 := Padico.now grid;
        let buf = Bb.create chunk in
        let received = ref 0 in
        while !received < total do
          (match Vl.await (Vl.post_read cvl buf) with
           | Vl.Done n -> received := !received + n
           | Vl.Eof | Vl.Again -> failwith "consumer: premature eof"
           | Vl.Error m -> failwith ("read: " ^ m));
          if !received < total then
            Engine.Proc.sleep_on (Simnet.Node.clock a) delay_ns
        done;
        t1 := Padico.now grid;
        Vl.close cvl)
  in
  Harness.run grid;
  Harness.fail_on_error h;
  { goodput_mb_s = Harness.mb_s total (!t1 - !t0); elapsed_ns = !t1 - !t0;
    stats = Resilient.stats conn;
    credit_stalls =
      (if sim then Madio.credit_stalls (Padico.madio grid b san) else 0);
    grid; a; b; san }
