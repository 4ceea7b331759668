(* End-to-end campaign benchmark.

   One invocation runs one workload: a fixed, seeded campaign driven
   through the libraries' public entry points (Explore.explore,
   Explore.sample, Certify.certify), repeated for the given number of
   seconds. Every verdict is checked against the expected answer, and the
   campaign's deterministic counts must repeat exactly across repeats; a
   wrong verdict or a mismatch is a failure and the exit code is 1.

   --trace 0 reports the end-to-end metrics from plain campaign runs.
   --trace 1 reports the per-layer split from separate traced runs,
   alternated with plain ones: each layer is timed from outside, by
   wrapping the closures the campaign drivers call (scenario.make,
   instance.check, subject.make/subject.policy, sample's ~runner).

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. NOTES.md gives the workloads'
   reasons and the layer-to-end-to-end map.

   Usage: e2e.exe --workload NAME --seed N --seconds S --trace 0|1 *)

open Hwf_sim
open Hwf_adversary
open Hwf_workload
open Hwf_faults
module Resil = Hwf_resil.Resil
module Pool = Hwf_par.Pool

let fi = float_of_int
let ratio a b = if b = 0. then 0. else a /. b

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---- clock and layer spans ---- *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let since t0 = fi (now_ns () - t0) /. 1e9

(* One layer's accumulated span time, call count and minor-heap words.
   Atomic, because pct-sample's jobs=2 parity run uses two domains. *)
type layer = { ns : int Atomic.t; calls : int Atomic.t; words : int Atomic.t }

let new_layer () = { ns = Atomic.make 0; calls = Atomic.make 0; words = Atomic.make 0 }
let bump a n = ignore (Atomic.fetch_and_add a n)
let layer_s l = fi (Atomic.get l.ns) /. 1e9
let layer_calls l = Atomic.get l.calls

type probe = {
  timed : bool;  (** Plain runs only count calls and statements. *)
  hashed : bool;  (** Hash each checked run's schedule into [schedules]. *)
  make : layer;
  check : layer;
  policy : layer;
  engine : layer;
  wellformed : layer;
  checked_stmts : int Atomic.t;  (** Statements of the verdict-checked runs. *)
  schedules : int Atomic.t;  (** Sum of the checked runs' schedule hashes. *)
  engine_stmts : int Atomic.t;  (** Statements executed inside engine spans. *)
}

let new_probe ~hashed ~timed =
  {
    timed;
    hashed;
    make = new_layer ();
    check = new_layer ();
    policy = new_layer ();
    engine = new_layer ();
    wellformed = new_layer ();
    checked_stmts = Atomic.make 0;
    schedules = Atomic.make 0;
    engine_stmts = Atomic.make 0;
  }

(* [span p l f] runs [f] as a span of layer [l]. Minor words are read on
   the calling domain, so they are exact even when cells run on two. *)
let span p l f =
  Atomic.incr l.calls;
  if not p.timed then f ()
  else begin
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let r = f () in
    bump l.ns (now_ns () - t0);
    bump l.words (int_of_float (Gc.minor_words () -. w0));
    r
  end

(* A hash of the run's statement pid sequence. The probe sums them, so
   the total does not depend on the order in which domains finish runs,
   but it does on which schedules were checked. It costs a few percent
   of a campaign, so timed repeats do not take it. *)
let schedule_hash trace =
  Hashtbl.hash
    (Trace.fold
       (fun h -> function
         | Trace.Stmt { pid; _ } -> (h * 31) + pid + 1
         | Trace.Inv_begin _ | Trace.Inv_end _ | Trace.Note _ | Trace.Set_priority _
         | Trace.Axiom2_gate _ -> h)
       0 trace)

let record_checked p (r : Engine.result) =
  bump p.checked_stmts (Trace.statements r.trace);
  if p.hashed then bump p.schedules (schedule_hash r.trace)

let wrap_scenario p (s : Explore.scenario) =
  let make () =
    let i = span p p.make s.make in
    let check (r : Engine.result) =
      record_checked p r;
      span p p.check (fun () -> i.check r)
    in
    { i with Explore.check }
  in
  { s with Explore.make }

let wrap_subject p (s : Certify.subject) =
  let make () =
    let i = span p p.make s.make in
    let check ~survivors (r : Engine.result) =
      record_checked p r;
      span p p.check (fun () -> i.check ~survivors r)
    in
    { i with Certify.check }
  in
  let policy () = span p p.policy s.policy in
  { s with Certify.make; policy }

(* The engine invocation [Explore.sample] would make (one scratch trace
   per domain), timed, followed by an extra timed [Wellformed.check]. *)
let timed_runner p config =
  let scratch = Domain.DLS.new_key (fun () -> Trace.create config) in
  fun ~step_limit ~policy (i : Explore.instance) ->
    let trace_buf = Domain.DLS.get scratch in
    let r =
      span p p.engine (fun () ->
          Engine.run ~step_limit ~trace_buf ~config ~policy i.programs)
    in
    bump p.engine_stmts (Trace.statements r.trace);
    ignore (span p p.wellformed (fun () -> Wellformed.check r.trace));
    r

(* ---- one campaign run ---- *)

type run = {
  wall : float;  (** Seconds from campaign start to its verdict. *)
  verdicts : int;  (** Verdicts judged. *)
  wrong : string list;  (** Verdicts that differ from the expected answer. *)
  checked : int;  (** Verdict-checked schedules or judged plans. *)
  counts : (string * int) list;  (** Must repeat exactly. *)
  layers : (string * float) list;  (** Per-layer values (traced runs). *)
}

let timed_call f =
  let g0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let r = f () in
  let wall = since t0 in
  let g1 = Gc.quick_stat () in
  let gc =
    [
      ("gc.minor_words", g1.Gc.minor_words -. g0.Gc.minor_words);
      ("gc.minor_collections", fi (g1.Gc.minor_collections - g0.Gc.minor_collections));
      ("gc.major_collections", fi (g1.Gc.major_collections - g0.Gc.major_collections));
    ]
  in
  (r, wall, gc)

let call_layers p =
  [
    ("workload.make_s", layer_s p.make);
    ("workload.make_calls", fi (layer_calls p.make));
    ("workload.make_minor_words", fi (Atomic.get p.make.words));
    ("check.verdict_s", layer_s p.check);
    ("check.verdict_calls", fi (layer_calls p.check));
  ]

let engine_layers p =
  let stmts = fi (Atomic.get p.engine_stmts) in
  [
    ("sim.engine_s", layer_s p.engine);
    ("sim.engine_stmts", stmts);
    ("sim.engine_stmts_per_s", ratio stmts (layer_s p.engine));
    ("sim.engine_minor_words_per_stmt", ratio (fi (Atomic.get p.engine.words)) stmts);
    ("sim.wellformed_s", layer_s p.wellformed);
    ("sim.wellformed_calls", fi (layer_calls p.wellformed));
  ]

let pool_layers pool =
  [
    ("par.claims", fi (Pool.stats_claims pool));
    ("par.steals", fi (Pool.stats_steals pool));
    ("par.evaluated", fi (Pool.stats_evaluated pool));
    ("par.skipped", fi (Pool.stats_skipped pool));
  ]

(* Extra checks run once per invocation, after the repeats. *)
type post = { pverdicts : int; pwrong : string list; players : (string * float) list }

let no_post = { pverdicts = 0; pwrong = []; players = [] }

(* ---- DFS workloads: cas3-dfs, fig7-dpor ---- *)

type dfs = { scenario : Explore.scenario; preemption_bound : int option; max_runs : int }

let explore_run ~expect_exhaustive p d =
  let stats = Explore.make_stats ~jobs:1 d.scenario in
  let o, wall, gc =
    timed_call (fun () ->
        Explore.explore ?preemption_bound:d.preemption_bound ~max_runs:d.max_runs
          ~jobs:1 ~stats (wrap_scenario p d.scenario))
  in
  let wrong =
    match o.counterexample with
    | Some c -> [ "counterexample, expected OK: " ^ c.message ]
    | None ->
      if not (Resil.complete o.coverage) then [ "incomplete coverage, expected OK" ]
      else if expect_exhaustive && not o.exhaustive then
        [ "OK but not exhaustive, expected exhaustive" ]
      else []
  in
  let engine_runs = layer_calls p.make in
  let pruned = Explore.stats_pruned stats in
  let blocked = Explore.stats_source_prunes stats in
  {
    wall;
    verdicts = 1;
    wrong;
    checked = o.runs;
    counts =
      [
        ("runs", o.runs);
        ("engine_runs", engine_runs);
        ("statements", Atomic.get p.checked_stmts);
        ("pruned", pruned);
        ("blocked_prefixes", blocked);
        ("exhaustive", Bool.to_int o.exhaustive);
      ];
    layers =
      call_layers p @ gc
      @ [
          ("adversary.explore_self_s", wall -. layer_s p.make -. layer_s p.check);
          ("adversary.engine_runs", fi engine_runs);
          ("adversary.checked_runs", fi o.runs);
          ("adversary.pruned", fi pruned);
          ("adversary.blocked_prefixes", fi blocked);
          ("adversary.useful_ratio", ratio (fi o.runs) (fi engine_runs));
          ("adversary.exhaustive", fi (Bool.to_int o.exhaustive));
        ];
  }

(* The engine and Wellformed shares of a DFS campaign, measured by
   replaying its verdict-checked schedules. A recording pass (untimed)
   keeps each checked run's statement pid sequence; each is replayed
   through [Schedule.replay], whose engine time is the replay span minus
   its nested [make] span, and the replayed trace is re-checked with
   [Wellformed.check]. A recording pass that checks another number of
   runs than the campaign [first], a replay that does not reproduce its
   run's statement count, or an ill-formed trace, is a failure. *)
let replay_post d (first : run) =
  let recorded = ref [] in
  let record (r : Engine.result) =
    let b = Buffer.create 256 in
    Trace.iter
      (function
        | Trace.Stmt { pid; _ } -> Buffer.add_char b (Char.chr pid)
        | Trace.Inv_begin _ | Trace.Inv_end _ | Trace.Note _ | Trace.Set_priority _
        | Trace.Axiom2_gate _ -> ())
      r.trace;
    recorded := (Buffer.contents b, Trace.statements r.trace) :: !recorded
  in
  let s = d.scenario in
  let recording () =
    let i = s.make () in
    {
      i with
      Explore.check =
        (fun r ->
          record r;
          i.check r);
    }
  in
  ignore
    (Explore.explore ?preemption_bound:d.preemption_bound ~max_runs:d.max_runs ~jobs:1
       { s with make = recording });
  let p = new_probe ~hashed:false ~timed:true in
  let replayed = { s with make = (fun () -> span p p.make s.make) } in
  let diverged = ref 0 and ill_formed = ref 0 in
  List.iter
    (fun (sched, stmts) ->
      let pids = List.init (String.length sched) (fun k -> Char.code sched.[k]) in
      let r, _ = span p p.engine (fun () -> Schedule.replay replayed pids) in
      bump p.engine_stmts (Trace.statements r.trace);
      if Trace.statements r.trace <> stmts then incr diverged;
      if span p p.wellformed (fun () -> Wellformed.check r.trace) <> [] then incr ill_formed)
    (List.rev !recorded);
  bump p.engine.ns (-Atomic.get p.make.ns);
  bump p.engine.words (-Atomic.get p.make.words);
  let n = List.length !recorded in
  let pwrong =
    if n <> first.checked then
      [ Printf.sprintf "recording pass checked %d runs, the campaign %d" n first.checked ]
    else if !diverged > 0 then
      [ Printf.sprintf "%d of %d replays did not reproduce their statement count" !diverged n ]
    else if !ill_formed > 0 then
      [ Printf.sprintf "%d of %d replayed traces are ill-formed" !ill_formed n ]
    else []
  in
  { pverdicts = 1; pwrong; players = engine_layers p }

(* Fig. 5 under three priority levels, the tier-1 "3 levels" search. The
   seed picks the three distinct nonzero values the script writes: only
   their equalities steer the object, so every seed has the same
   schedule tree. *)
let cas3_setup seed =
  let st = Random.State.make [| seed |] in
  let rec pick avoid =
    let v = 1 + Random.State.int st 1_000_000 in
    if List.mem v avoid then pick avoid else v
  in
  let a = pick [] in
  let b = pick [ a ] in
  let c = pick [ a; b ] in
  let script =
    [ [ Scenarios.Cas (0, a) ]; [ Scenarios.Cas (0, b); Scenarios.Rd ]; [ Scenarios.Cas (b, c) ] ]
  in
  {
    scenario =
      Scenarios.hybrid_cas ~name:"cas3-dfs" ~quantum:400
        ~layout:[ (0, 1); (0, 2); (0, 3) ]
        ~script;
    preemption_bound = Some 2;
    max_runs = 2_000_000;
  }

(* Fig. 7 consensus, C=2, Q=8, one process on each of two processors.
   Its inputs (proposals 100+pid) are fixed by the scenario, so the seed
   does not enter. *)
let fig7_scenario () =
  (Scenarios.consensus ~name:"fig7"
     ~impl:(Scenarios.Fig7 { consensus_number = 2 })
     ~quantum:8
     ~layout:[ (0, 1); (1, 1) ])
    .scenario

let fig7_setup _seed = { scenario = fig7_scenario (); preemption_bound = None; max_runs = 10_000 }

(* ---- certify-full ---- *)

type battery = { positives : (Certify.subject * Plan.t list) list; negative : Certify.subject }

let certify_setup seed =
  {
    positives =
      List.map
        (fun s -> (s, Suite.campaign ~quick:false ~seed s))
        (Suite.positive_subjects ~seed ());
    negative = Suite.negative ~seed ();
  }

let certify_run p b =
  let pool = Pool.make_stats ~jobs:1 in
  let certify s plans = Certify.certify ~jobs:1 ~pool_stats:pool (wrap_subject p s) plans in
  let (reports, neg), wall, gc =
    timed_call (fun () ->
        let reports = List.map (fun (s, plans) -> certify s plans) b.positives in
        (reports, certify b.negative [ Suite.negative_plan ]))
  in
  let wrong =
    List.filter_map
      (fun (r : Certify.report) ->
        if Resil.complete r.coverage && Certify.certified r then None
        else Some (r.subject ^ ": not CERTIFIED"))
      reports
    @
    if Resil.complete neg.coverage && not (Certify.certified neg) then []
    else [ "negative control: not REJECTED" ]
  in
  let all = reports @ [ neg ] in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 all in
  let plans = sum (fun r -> r.Certify.plans) in
  {
    wall;
    verdicts = List.length all;
    wrong;
    checked = plans;
    counts =
      List.concat_map
        (fun (r : Certify.report) ->
          [
            (r.subject ^ ".plans", r.plans);
            (r.subject ^ ".passed", r.passed);
            (r.subject ^ ".blocked", r.blocked);
            (r.subject ^ ".worst_own_steps", r.worst_own_steps);
            (r.subject ^ ".failures", List.length r.failures);
          ])
        all;
    layers =
      call_layers p @ gc @ pool_layers pool
      @ [
          ( "faults.certify_self_s",
            wall -. layer_s p.make -. layer_s p.check -. layer_s p.policy );
          ("faults.policy_s", layer_s p.policy);
          ("faults.plans", fi plans);
          ("faults.passed", fi (sum (fun r -> r.Certify.passed)));
          ("faults.blocked", fi (sum (fun r -> r.Certify.blocked)));
          ( "faults.worst_own_steps",
            fi (List.fold_left (fun acc r -> max acc r.Certify.worst_own_steps) 0 all) );
        ];
  }

(* ---- pct-sample ---- *)

let pct_runs = 10_000

type sample = { sscenario : Explore.scenario; seed : int }

let pct_run ~jobs p s =
  let stats = Explore.make_stats ~jobs s.sscenario in
  let runner = if p.timed then Some (timed_runner p s.sscenario.config) else None in
  let o, wall, gc =
    timed_call (fun () ->
        Explore.sample ~runs:pct_runs ~jobs ~stats ?runner
          ~strategy:(Randsched.Pct { depth = 3 })
          ~seed:s.seed (wrap_scenario p s.sscenario))
  in
  let wrong =
    match o.counterexample with
    | Some c -> [ "counterexample, expected none: " ^ c.message ]
    | None ->
      if o.runs <> pct_runs then [ Printf.sprintf "%d runs, expected %d" o.runs pct_runs ]
      else []
  in
  let sampled = Explore.stats_sampled stats in
  (* Span time summed over the domains, against the domains' wall time. *)
  let children =
    layer_s p.make +. layer_s p.engine +. layer_s p.wellformed +. layer_s p.check
  in
  {
    wall;
    verdicts = 1;
    wrong;
    checked = o.runs;
    counts =
      [
        ("runs", o.runs);
        ("sampled", sampled);
        ("statements", Atomic.get p.checked_stmts);
        ("schedules", Atomic.get p.schedules);
        ("counterexample", Bool.to_int (o.counterexample <> None));
      ];
    layers =
      call_layers p @ engine_layers p @ gc
      @ pool_layers (Explore.stats_pool stats)
      @ [
          ("adversary.sample_self_s", wall -. (children /. fi jobs));
          ("adversary.sampled", fi sampled);
          ("adversary.engine_runs", fi sampled);
          ("adversary.checked_runs", fi o.runs);
          ("adversary.useful_ratio", ratio (fi o.runs) (fi sampled));
          ("par.busy_ratio", ratio children (fi jobs *. wall));
        ];
  }

(* [Explore.sample] promises the same outcome and counts at every
   [jobs]. After the rounds, a jobs=1 and a jobs=2 run both hash every
   checked schedule: their counts, hash included, must be equal, and the
   jobs=1 run's other counts must equal the repeats'. Traced, the jobs=2
   run also gives the pool's metrics, which a jobs=1 campaign does not
   reach. *)
let pct_post ~traced s (first : run) =
  let one = pct_run ~jobs:1 (new_probe ~hashed:true ~timed:false) s in
  let two = pct_run ~jobs:2 (new_probe ~hashed:true ~timed:traced) s in
  let unhashed r = List.remove_assoc "schedules" r.counts in
  let pwrong =
    List.map (fun w -> "jobs=1: " ^ w) one.wrong
    @ List.map (fun w -> "jobs=2: " ^ w) two.wrong
    @ (if unhashed one <> unhashed first then [ "hashed jobs=1 counts differ from the repeats" ]
       else [])
    @ if two.counts <> one.counts then [ "jobs=2 counts or schedules differ from jobs=1" ] else []
  in
  let players =
    if traced then List.filter (fun (k, _) -> String.starts_with ~prefix:"par." k) two.layers
    else []
  in
  { pverdicts = 2; pwrong; players }

(* ---- workloads ---- *)

type workload =
  | W : {
      name : string;
      setup : int -> 'a;  (** Builds the campaign's inputs from the seed. *)
      run : probe -> 'a -> run;
      post : traced:bool -> 'a -> run -> post;
    }
      -> workload

let dfs_post ~traced d first = if traced then replay_post d first else no_post

let workloads =
  [
    W
      {
        name = "cas3-dfs";
        setup = cas3_setup;
        run = explore_run ~expect_exhaustive:true;
        post = dfs_post;
      };
    W
      {
        name = "fig7-dpor";
        setup = fig7_setup;
        run = explore_run ~expect_exhaustive:false;
        post = dfs_post;
      };
    W
      {
        name = "certify-full";
        setup = certify_setup;
        run = certify_run;
        post = (fun ~traced:_ _ _ -> no_post);
      };
    W
      {
        name = "pct-sample";
        setup = (fun seed -> { sscenario = fig7_scenario (); seed });
        run = pct_run ~jobs:1;
        post = pct_post;
      };
  ]

(* ---- metric catalogue (mirrors BENCHMARK.json) ---- *)

(* fail_frac is printed too, but not gated: it is 0 on correct code
   (failures travel as the JSON's failed/attempted and the exit code). *)
let end_to_end =
  [ ("verdict_s", "s"); ("checked_per_s", "1/s"); ("setup_s", "s"); ("peak_heap_mb", "MB") ]

let per_layer =
  [
    ("workload.make_s", "s");
    ("workload.make_calls", "count");
    ("workload.make_minor_words", "words");
    ("sim.engine_s", "s");
    ("sim.engine_stmts", "count");
    ("sim.engine_stmts_per_s", "stmt/s");
    ("sim.engine_minor_words_per_stmt", "words/stmt");
    ("sim.wellformed_s", "s");
    ("sim.wellformed_calls", "count");
    ("check.verdict_s", "s");
    ("check.verdict_calls", "count");
    ("adversary.explore_self_s", "s");
    ("adversary.engine_runs", "count");
    ("adversary.checked_runs", "count");
    ("adversary.pruned", "count");
    ("adversary.blocked_prefixes", "count");
    ("adversary.useful_ratio", "ratio");
    ("adversary.exhaustive", "bool");
    ("adversary.sample_self_s", "s");
    ("adversary.sampled", "count");
    ("faults.certify_self_s", "s");
    ("faults.policy_s", "s");
    ("faults.plans", "count");
    ("faults.passed", "count");
    ("faults.blocked", "count");
    ("faults.worst_own_steps", "count");
    ("par.claims", "count");
    ("par.steals", "count");
    ("par.evaluated", "count");
    ("par.skipped", "count");
    ("par.busy_ratio", "ratio");
    ("par.effective_parallelism", "x");
    ("gc.minor_words", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.peak_heap_mb", "MB");
    ("traced.verdict_s", "s");
    ("trace_overhead", "s");
  ]

(* ---- measurement ---- *)

let spin n =
  let x = ref 1 in
  for i = 1 to n do
    x := (!x * 31) + i
  done;
  !x

(* Raw two-domain spin probe: the time one domain takes for two units of
   pure arithmetic, over the time two domains take for one unit each.
   2.0 is perfect scaling; this hardware ceiling, not 2x, is what
   pct-sample's jobs=2 figures are read against. Median of 3. *)
let effective_parallelism () =
  let n = Sys.opaque_identity 30_000_000 in
  let trial () =
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (spin n));
    ignore (Sys.opaque_identity (spin n));
    let seq = now_ns () - t0 in
    let t0 = now_ns () in
    let d = Domain.spawn (fun () -> spin n) in
    ignore (Sys.opaque_identity (spin n));
    ignore (Sys.opaque_identity (Domain.join d));
    ratio (fi seq) (fi (now_ns () - t0))
  in
  median (List.init 3 (fun _ -> trial ()))

(* One set-up sample: the mean time per set-up over a batch at least
   20 ms long (the cheapest set-ups take microseconds). Returns the last
   inputs built. *)
let setup_batch setup =
  let t0 = now_ns () in
  let rec go n =
    let x = setup () in
    if now_ns () - t0 < 20_000_000 then go (n + 1) else (x, n)
  in
  let x, n = go 1 in
  (since t0 /. fi n, x)

(* Set-up samples taken per round; their median over the run is
   setup_s. *)
let setup_batches = 5

let heap_mb () = fi (Gc.quick_stat ()).Gc.top_heap_words *. fi (Sys.word_size / 8) /. 1048576.

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let main ~name ~seed ~seconds ~trace =
  let (W w) = List.find (fun (W w) -> w.name = name) workloads in
  let eff = effective_parallelism () in
  let setups = ref [] and peak_heap_mb = ref 0. in
  let repeat timed inputs =
    Gc.compact ();
    w.run (new_probe ~hashed:false ~timed) inputs
  in
  (* Each round takes set-up samples, which build the inputs, and runs
     one plain repeat (and, with --trace 1, one traced repeat). Set-up
     samples are thus spread over the run like the repeats, and each
     starts from a compacted heap, so it does not pay for the previous
     repeat's garbage. Another round starts while it would end nearer the
     budget than stopping now would, judged by the last round's length,
     so a run lasts about the budget however long a repeat takes. *)
  let t0 = now_ns () in
  let rec loop plains traceds =
    let r0 = now_ns () in
    Gc.compact ();
    let rec sample k =
      let setup_s, inputs = setup_batch (fun () -> w.setup seed) in
      setups := setup_s :: !setups;
      if k <= 1 then inputs else sample (k - 1)
    in
    let inputs = sample setup_batches in
    let p = repeat false inputs in
    (* [top_heap_words] only grows: read after the first campaign, it is
       that campaign's high-water mark, as in a process that runs one
       campaign, and it does not depend on how many repeats fit. *)
    if plains = [] then peak_heap_mb := heap_mb ();
    let t = if trace then [ repeat true inputs ] else [] in
    let plains = p :: plains and traceds = t @ traceds in
    if since t0 +. (since r0 /. 2.) >= fi seconds then (inputs, List.rev plains, List.rev traceds)
    else loop plains traceds
  in
  let inputs, plains, traceds = loop [] [] in
  let setup_s = median !setups in
  let post = w.post ~traced:trace inputs (List.hd plains) in
  let runs = plains @ traceds in
  let reference = (List.hd runs).counts in
  let mismatches = List.filter (fun r -> r.counts <> reference) (List.tl runs) in
  let wrong =
    List.concat_map (fun r -> r.wrong) runs
    @ post.pwrong
    @ List.map (fun _ -> "deterministic counts differ across repeats") mismatches
  in
  let attempted =
    List.fold_left (fun acc r -> acc + r.verdicts) 0 runs + (List.length runs - 1) + post.pverdicts
  in
  let failed = List.length wrong in
  let verdict_s = median (List.map (fun r -> r.wall) plains) in
  let metrics =
    if not trace then
      [
        ("verdict_s", verdict_s);
        ("checked_per_s", fi (List.hd plains).checked /. verdict_s);
        ("setup_s", setup_s);
        ("peak_heap_mb", !peak_heap_mb);
      ]
    else begin
      (* Every layer value comes from one traced repeat, the one with the
         median wall time, so the split adds up to its wall time. *)
      let by_wall = List.sort (fun a b -> compare a.wall b.wall) traceds in
      let mid = List.nth by_wall (List.length by_wall / 2) in
      let layer name =
        match List.assoc_opt name post.players with
        | Some v -> v
        | None -> Option.value ~default:0. (List.assoc_opt name mid.layers)
      in
      List.map
        (fun (name, _) ->
          ( name,
            match name with
            | "par.effective_parallelism" -> eff
            | "gc.peak_heap_mb" -> !peak_heap_mb
            | "traced.verdict_s" -> mid.wall
            | "trace_overhead" -> mid.wall -. verdict_s
            | _ -> layer name ))
        per_layer
    end
  in
  let units = if trace then per_layer else end_to_end in
  Printf.printf "workload %s, seed %d: %d plain repeats, %d traced\n" name seed
    (List.length plains) (List.length traceds);
  Printf.printf "par.effective_parallelism %.3f x (raw two-domain spin probe)\n" eff;
  Printf.printf "counts %s\n"
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) reference));
  Printf.printf "repeat walls (s): %s\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.wall) runs));
  List.iter
    (fun (k, v) -> Printf.printf "%-34s %s %s\n" k (json_number v) (List.assoc k units))
    metrics;
  Printf.printf "%-34s %s ratio (%d of %d)\n" "fail_frac"
    (json_number (fi failed /. fi attempted)) failed attempted;
  List.iter (Printf.printf "FAILED: %s\n") wrong;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (k, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_number v)
              (List.assoc k units))
          metrics));
  if failed > 0 then exit 1

let () =
  let name = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string name, "NAME cas3-dfs | fig7-dpor | certify-full | pct-sample");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measurement budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer split (1)");
    ]
  in
  let usage = "e2e.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if
    (not (List.exists (fun (W w) -> w.name = !name) workloads))
    || !seconds < 1
    || not (!trace = 0 || !trace = 1)
  then begin
    Arg.usage spec usage;
    exit 2
  end;
  main ~name:!name ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
