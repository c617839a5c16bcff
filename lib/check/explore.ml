module Sim = Engine.Sim
module Plan = Padico_fault.Plan

type failure = {
  token : string;
  case : string;
  policy : Sim.policy;
  message : string;
}

type summary = {
  cases_run : int;
  interleavings : int;
  failures : failure list;
}

let mk_failure ?plan (case : Conform.case) policy message =
  let token =
    Replay.to_string
      { Replay.case = case.Conform.case_name; policy;
        plan_digest = Replay.digest_plan plan }
  in
  { token; case = case.Conform.case_name; policy; message }

let exec ?plan (case : Conform.case) policy =
  match case.Conform.run ~plan policy with
  | () -> None
  | exception Conform.Failed msg -> Some (mk_failure ?plan case policy msg)
  | exception e ->
    Some (mk_failure ?plan case policy (Printexc.to_string e))

let default_policies ~seeds =
  Sim.Fifo :: Sim.Lifo :: Sim.Starve_oldest
  :: List.init (max 0 seeds) (fun i -> Sim.Random i)

let filter_names names cases =
  let matches c =
    List.exists
      (fun n ->
         n = c.Conform.case_name
         || String.length n > 0
            && n.[String.length n - 1] = '/'
            && String.length c.Conform.case_name >= String.length n
            && String.sub c.Conform.case_name 0 (String.length n) = n)
      names
  in
  List.filter matches cases

let select_cases ?(demo = false) ?names () =
  let all = Conform.cases ~demo () in
  match names with None -> all | Some names -> filter_names names all

let explore ?plan ?demo ?names ~policies () =
  let cases = select_cases ?demo ?names () in
  let interleavings = ref 0 in
  let failures =
    List.filter_map
      (fun case ->
         let rec first = function
           | [] -> None
           | p :: rest -> (
               incr interleavings;
               match exec ?plan case p with
               | None -> first rest
               | Some f -> Some f)
         in
         first policies)
      cases
  in
  { cases_run = List.length cases; interleavings = !interleavings; failures }

(* ---------- chaos sweeps ---------- *)

(* Randomized fault plans against the mixed collective fixture (nodes
   c0-0/c0-1/c1-0/c1-1 on san0/san1 islands bridged by wan). The
   generator never crashes c0-0 — rank 0 roots every operation, and a
   rootless storm asserts nothing — and never leaves a link down or a
   partition unhealed forever: permanent unreachability is the
   [resilient-fault/exhaustion] case's job, while chaos cases must
   terminate. Everything draws from one splitmix64 stream, so a seed
   names a plan exactly. *)

let chaos_victims = [ "c0-1"; "c1-0"; "c1-1" ]

let chaos_nodes = "c0-0" :: chaos_victims

let chaos_segments = [ "san0"; "san1"; "wan" ]

let chaos_plan ~seed =
  let module Rng = Engine.Rng in
  let rng = Rng.create (0x6ee6 + seed) in
  let ms x = x * 1_000_000 in
  let between lo hi = ms (lo + Rng.int rng (hi - lo + 1)) in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let events = ref [] in
  let add at_ns action = events := { Plan.at_ns; action } :: !events in
  (* Usually one member dies for good — the healing path under stress. *)
  if Rng.bool rng 0.8 then
    add (between 5 60) (Plan.Node_crash (pick chaos_victims));
  (* A transient carrier loss on one segment, always restored. *)
  if Rng.bool rng 0.7 then begin
    let seg = pick chaos_segments in
    let down = between 2 50 in
    add down (Plan.Link_down seg);
    add (down + between 5 30) (Plan.Link_up seg)
  end;
  for _ = 1 to Rng.int rng 3 do
    add (between 1 80)
      (Plan.Loss_burst
         { link = pick chaos_segments;
           loss = 0.05 +. Rng.float rng 0.45;
           duration_ns = between 5 20 })
  done;
  if Rng.bool rng 0.5 then
    add (between 1 80)
      (Plan.Latency_spike
         { link = pick chaos_segments; add_ns = between 1 10;
           duration_ns = between 5 20 });
  (* A bipartition — the cluster split or one isolated member — healed
     after a window long enough for both sides to confirm the other
     dead. *)
  if Rng.bool rng 0.4 then begin
    let group_a, group_b =
      if Rng.bool rng 0.5 then ([ "c0-0"; "c0-1" ], [ "c1-0"; "c1-1" ])
      else
        let iso = pick chaos_victims in
        ([ iso ], List.filter (fun n -> n <> iso) chaos_nodes)
    in
    let at = between 2 50 in
    add at (Plan.Partition { group_a; group_b });
    add (at + between 10 40) Plan.Heal
  end;
  List.stable_sort
    (fun a b -> compare a.Plan.at_ns b.Plan.at_ns)
    (List.rev !events)

type chaos_failure = { seed : int; plan : Plan.t; failure : failure }

type chaos_summary = {
  plans_run : int;
  chaos_interleavings : int;
  chaos_failures : chaos_failure list;
}

let chaos ?(names = [ "coll-chaos/" ]) ~seeds ~policies () =
  let interleavings = ref 0 in
  let failures =
    List.concat_map
      (fun seed ->
         let plan = chaos_plan ~seed in
         let s = explore ~plan ~names ~policies () in
         interleavings := !interleavings + s.interleavings;
         List.map (fun failure -> { seed; plan; failure }) s.failures)
      (List.init (max 0 seeds) Fun.id)
  in
  { plans_run = max 0 seeds; chaos_interleavings = !interleavings;
    chaos_failures = failures }

let replay ?plan token_str =
  match Replay.of_string token_str with
  | Error _ as e -> e
  | Ok token ->
    let supplied = Replay.digest_plan plan in
    if supplied <> token.Replay.plan_digest then
      Error
        (Printf.sprintf
           "replay: token was recorded with fault-plan digest %s but the \
            supplied plan digests to %s — pass the original plan file"
           token.Replay.plan_digest supplied)
    else (
      match
        List.find_opt
          (fun c -> c.Conform.case_name = token.Replay.case)
          (Conform.cases ~demo:true ())
      with
      | None ->
        Error (Printf.sprintf "replay: unknown case %S" token.Replay.case)
      | Some case -> Ok (exec ?plan case token.Replay.policy))

let still_fails ?plan (case : Conform.case) policy =
  match exec ?plan case policy with Some _ -> true | None -> false

let shrink ?plan failure =
  match
    List.find_opt
      (fun c -> c.Conform.case_name = failure.case)
      (Conform.cases ~demo:true ())
  with
  | None -> (plan, failure.policy, failure.token)
  | Some case ->
    (* Phase 1: drop fault-plan events one at a time while the case still
       fails; loop until a fixed point (dropping one event can make
       another droppable). *)
    let drop_one events =
      let n = List.length events in
      let rec try_at i =
        if i >= n then None
        else
          let smaller = List.filteri (fun j _ -> j <> i) events in
          let candidate = if smaller = [] then None else Some smaller in
          if still_fails ?plan:candidate case failure.policy then
            Some candidate
          else try_at (i + 1)
      in
      try_at 0
    in
    let rec minimise plan =
      match plan with
      | None -> None
      | Some events -> (
          match drop_one events with
          | Some smaller -> minimise smaller
          | None -> plan)
    in
    let plan = minimise plan in
    (* Phase 2: prefer a seedless policy when one also exposes the bug —
       "lifo" in a token reads better than "random-173". *)
    let policy =
      match failure.policy with
      | Sim.Fifo | Sim.Lifo -> failure.policy
      | Sim.Starve_oldest | Sim.Random _ ->
        let simpler =
          List.find_opt
            (fun p -> p <> failure.policy && still_fails ?plan case p)
            [ Sim.Lifo; Sim.Starve_oldest ]
        in
        Option.value simpler ~default:failure.policy
    in
    let token =
      Replay.to_string
        { Replay.case = failure.case; policy;
          plan_digest = Replay.digest_plan plan }
    in
    (plan, policy, token)
