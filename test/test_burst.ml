open Hwf_sim

(* The differential suite behind the engine's hot-path machinery
   (quantum-burst batching, schedulable-list caching, dirty-queue view
   refresh): every run must be byte-identical to the self-checking
   reference engine, which disables all of it and audits the
   incremental structures against a naive rescan. The matrix crosses
   the lint corpus's workloads (the repo's nastiest subjects — harness
   misuse, spins, priority churn) with fault plans and every policy
   family, including the randomized samplers whose RNG streams the
   burst contract must not perturb. Plus direct unit tests for the
   packed trace encoding and the observer lifecycle. *)

(* ---- differential: batched/cached engine vs self-checking reference ---- *)

type capture = {
  trace_bytes : string;
  stop : Engine.stop_reason;
  finished : bool array;
  own_steps : int array;
  halted : bool array;
}

(* Some corpus subjects raise out of the run (harness misuse the engine
   rejects): the two engines must then raise identically, so capture
   the exception as an outcome rather than failing the harness. *)
let capture ~self_check ~step_limit ~plan ~config ~policy make =
  match
    Hwf_faults.Inject.run ~step_limit ~self_check ~plan ~config ~policy (make ())
  with
  | r ->
    Ok
      {
        trace_bytes = Hwf_obs.Jsonl.trace_to_string r.Engine.trace;
        stop = r.Engine.stop;
        finished = r.Engine.finished;
        own_steps = r.Engine.own_steps;
        halted = r.Engine.halted;
      }
  | exception e -> Error (Printexc.to_string e)

let same_capture label a b =
  match (a, b) with
  | Error ea, Error eb -> Util.check Alcotest.string (label ^ ": exception") ea eb
  | Ok a, Ok b ->
    Util.check Alcotest.string (label ^ ": trace bytes") a.trace_bytes b.trace_bytes;
    Util.checkb (label ^ ": stop") (a.stop = b.stop);
    Util.checkb (label ^ ": finished") (a.finished = b.finished);
    Util.checkb (label ^ ": own_steps") (a.own_steps = b.own_steps);
    Util.checkb (label ^ ": halted") (a.halted = b.halted)
  | Ok _, Error e ->
    Alcotest.failf "%s: batched run succeeded, reference raised %s" label e
  | Error e, Ok _ ->
    Alcotest.failf "%s: batched run raised %s, reference succeeded" label e

let differential label ~step_limit ~plan ~config ~policy make =
  let fast = capture ~self_check:false ~step_limit ~plan ~config ~policy make in
  let slow = capture ~self_check:true ~step_limit ~plan ~config ~policy make in
  same_capture label fast slow

let policies =
  [
    ("first", Policy.first);
    ("round-robin", Policy.round_robin ());
    ("by-priority", Policy.by_priority);
    ("random", Policy.random ~seed:11);
    ("naive", Hwf_adversary.Randsched.policy Hwf_adversary.Randsched.Naive ~seed:3);
    ( "pct",
      Hwf_adversary.Randsched.policy
        (Hwf_adversary.Randsched.Pct { depth = 3 })
        ~seed:5 );
    ("pos", Hwf_adversary.Randsched.policy Hwf_adversary.Randsched.Pos ~seed:7);
    ("surw", Hwf_adversary.Randsched.policy Hwf_adversary.Randsched.Surw ~seed:9);
  ]

let plans =
  [
    Hwf_faults.Plan.none;
    Hwf_faults.Plan.crash_at ~victim:0 ~after:3;
    Hwf_faults.Plan.with_axiom2
      (Hwf_faults.Plan.Windows { period = 12; off = 5; phase = 0 })
      Hwf_faults.Plan.none;
    Hwf_faults.Plan.with_cost Hwf_faults.Plan.Slow Hwf_faults.Plan.none;
  ]

(* Every corpus workload under every policy, fault-free: the full
   batching + caching surface. *)
let test_corpus_policies () =
  List.iter
    (fun (case : Hwf_lint_corpus.Corpus.case) ->
      let spec = case.spec in
      List.iter
        (fun (pname, policy) ->
          differential
            (Printf.sprintf "%s/%s" spec.Hwf_lint.Lint.name pname)
            ~step_limit:spec.Hwf_lint.Lint.step_limit ~plan:Hwf_faults.Plan.none
            ~config:spec.Hwf_lint.Lint.config ~policy spec.Hwf_lint.Lint.make)
        policies)
    (Hwf_lint_corpus.Corpus.all ())

(* Every corpus workload under every fault plan: the hooks that disable
   batching (and, for crashes, list caching) still go through the
   incremental view machinery, which must agree with the naive scan. *)
let test_corpus_faults () =
  List.iter
    (fun (case : Hwf_lint_corpus.Corpus.case) ->
      let spec = case.spec in
      List.iter
        (fun (plan : Hwf_faults.Plan.t) ->
          List.iter
            (fun (pname, policy) ->
              differential
                (Printf.sprintf "%s/%s/%s" spec.Hwf_lint.Lint.name plan.label pname)
                ~step_limit:spec.Hwf_lint.Lint.step_limit ~plan
                ~config:spec.Hwf_lint.Lint.config ~policy spec.Hwf_lint.Lint.make)
            [ ("random", Policy.random ~seed:11);
              ( "pct",
                Hwf_adversary.Randsched.policy
                  (Hwf_adversary.Randsched.Pct { depth = 3 })
                  ~seed:5 );
              ("surw", Hwf_adversary.Randsched.policy Hwf_adversary.Randsched.Surw ~seed:9)
            ])
        plans)
    (Hwf_lint_corpus.Corpus.all ())

(* The E19-shaped stress layout: many processes, two priority bands,
   multiple processors — the singleton-level burst mode and the
   version-restore path of the guarantee grant/drain pair fire here in
   volume, which the tiny corpus configs cannot provide. *)
let test_two_band_stress () =
  List.iter
    (fun (n, processors) ->
      let layout =
        List.init n (fun i ->
            Proc.make ~pid:i ~processor:(i mod processors)
              ~priority:(1 + (i / processors mod 2))
              ())
      in
      let config = Config.make ~quantum:6 ~processors ~levels:2 layout in
      let make () =
        Array.init n (fun _ () ->
            for _ = 1 to 12 do
              Eff.invocation "w" (fun () ->
                  for _ = 1 to 8 do
                    Eff.local "s"
                  done)
            done)
      in
      List.iter
        (fun (pname, policy) ->
          differential
            (Printf.sprintf "two-band n=%d p=%d/%s" n processors pname)
            ~step_limit:1_000_000 ~plan:Hwf_faults.Plan.none ~config ~policy make)
        policies)
    [ (16, 1); (16, 4); (48, 2) ]

(* ---- packed trace encoding ---- *)

let mk_config n =
  Config.make ~quantum:4 ~processors:1 ~levels:2
    (List.init n (fun i -> Proc.make ~pid:i ~processor:0 ~priority:1 ()))

let sample_events =
  [
    Trace.Inv_begin { pid = 0; inv = 0; label = "work" };
    Trace.Stmt { idx = 0; pid = 0; op = Op.local "s"; inv = 0; cost = 1 };
    Trace.Stmt { idx = 1; pid = 0; op = Op.read "x"; inv = 0; cost = 3 };
    Trace.Note { pid = 1; text = "a note" };
    Trace.Set_priority { pid = 1; priority = 2 };
    Trace.Axiom2_gate { at = 2; active = false };
    Trace.Stmt { idx = 2; pid = 1; op = Op.write "x"; inv = 0; cost = 2 };
    Trace.Inv_end { pid = 0; inv = 0; label = "work" };
    Trace.Axiom2_gate { at = 3; active = true };
    (* repeats: the op and label intern tables must hand back the same
       decoded values for re-used ids *)
    Trace.Inv_begin { pid = 0; inv = 1; label = "work" };
    Trace.Stmt { idx = 3; pid = 0; op = Op.read "x"; inv = 1; cost = 1 };
    Trace.Stmt { idx = 4; pid = 0; op = Op.rmw ~var:"x" ~kind:"cas"; inv = 1; cost = 1 };
    Trace.Note { pid = 0; text = "a note" };
    Trace.Inv_end { pid = 0; inv = 1; label = "work" };
  ]

let test_packed_round_trip () =
  let t = Trace.create (mk_config 2) in
  List.iter (Trace.add t) sample_events;
  Util.checkb "events round-trip" (Trace.events t = sample_events);
  Util.checki "length" (List.length sample_events) (Trace.length t);
  Util.checki "statements" 5 (Trace.statements t);
  Util.checki "time" 8 (Trace.time t);
  Util.checki "own p0" 4 (Trace.own_statements t 0);
  Util.checki "own p1" 1 (Trace.own_statements t 1);
  (* iter and fold decode the same records as events *)
  let via_iter = ref [] in
  Trace.iter (fun e -> via_iter := e :: !via_iter) t;
  Util.checkb "iter agrees" (List.rev !via_iter = sample_events);
  let n = Trace.fold (fun acc _ -> acc + 1) 0 t in
  Util.checki "fold agrees" (Trace.length t) n;
  (* reset empties the trace but keeps the buffer usable *)
  Trace.reset t;
  Util.checkb "reset: empty" (Trace.events t = []);
  Util.checki "reset: statements" 0 (Trace.statements t);
  Util.checki "reset: own" 0 (Trace.own_statements t 0);
  List.iter (Trace.add t) sample_events;
  Util.checkb "reusable after reset" (Trace.events t = sample_events)

let test_packed_observer_dispatch () =
  (* statements reach on_stmt (fields, no record); everything else
     reaches on_event *)
  let t = Trace.create (mk_config 2) in
  let stmts = ref 0 and others = ref [] in
  Trace.set_sink t
    {
      Trace.on_stmt = (fun ~idx:_ ~pid:_ ~op:_ ~inv:_ ~cost:_ -> incr stmts);
      on_event = (fun e -> others := e :: !others);
    };
  List.iter (Trace.add t) sample_events;
  Util.checki "on_stmt calls" 5 !stmts;
  Util.checki "on_event calls" (List.length sample_events - 5) (List.length !others);
  Util.checkb "on_event never sees Stmt"
    (List.for_all (function Trace.Stmt _ -> false | _ -> true) !others)

(* ---- observer lifecycle ---- *)

let two_procs () = mk_config 2

let bodies k =
  Array.init 2 (fun _ () ->
      for _ = 1 to k do
        Eff.invocation "w" (fun () -> Eff.local "s")
      done)

let test_observer_detached_after_run () =
  let trace_buf = Trace.create (two_procs ()) in
  let calls = ref 0 in
  let r =
    Engine.run ~trace_buf
      ~sink:(Trace.observer (fun _ -> incr calls))
      ~config:(two_procs ()) ~policy:Policy.first (bodies 3)
  in
  Util.checkb "run finished" (r.Engine.stop = Engine.All_finished);
  Util.checkb "observer saw events" (!calls > 0);
  let seen = !calls in
  Trace.add r.Engine.trace (Trace.Note { pid = 0; text = "post-run" });
  Util.checki "observer detached after normal return" seen !calls

let test_observer_detached_after_raise () =
  let trace_buf = Trace.create (two_procs ()) in
  let calls = ref 0 in
  let boom =
    [|
      (fun () -> Eff.invocation "w" (fun () -> Eff.local "s"));
      (fun () -> failwith "boom");
    |]
  in
  (match
     Engine.run ~trace_buf
       ~sink:(Trace.observer (fun _ -> incr calls))
       ~config:(two_procs ()) ~policy:Policy.first boom
   with
  | _ -> Alcotest.fail "expected the body exception to propagate"
  | exception Failure msg -> Util.check Alcotest.string "exn" "boom" msg);
  let seen = !calls in
  Trace.add trace_buf (Trace.Note { pid = 0; text = "post-raise" });
  Util.checki "observer detached after exception" seen !calls

let test_trace_buf_reuse () =
  (* The same trace buffer serves consecutive runs (the Explore arena
     pattern): each run resets it and yields that run's events only. *)
  let trace_buf = Trace.create (two_procs ()) in
  let r1 =
    Engine.run ~trace_buf ~config:(two_procs ()) ~policy:Policy.first (bodies 2)
  in
  let s1 = Trace.statements r1.Engine.trace in
  let r2 =
    Engine.run ~trace_buf ~config:(two_procs ()) ~policy:Policy.first (bodies 5)
  in
  Util.checkb "same buffer" (r1.Engine.trace == r2.Engine.trace);
  Util.checki "second run's statements only" (5 * s1 / 2) (Trace.statements r2.Engine.trace)

(* sink-based metrics equal observer-adapted metrics equal of_trace *)
let test_metrics_sink_equivalence () =
  let config = mk_config 4 in
  let make () =
    Array.init 4 (fun _ () ->
        for _ = 1 to 6 do
          Eff.invocation "w" (fun () ->
              for _ = 1 to 4 do
                Eff.local "s"
              done)
        done)
  in
  let via_sink =
    let c = Hwf_obs.Metrics.collector config in
    let r =
      Engine.run ~sink:(Hwf_obs.Metrics.sink c) ~config
        ~policy:(Policy.random ~seed:5) (make ())
    in
    ignore r;
    Hwf_obs.Metrics.finish c
  in
  let via_observer, trace =
    let c = Hwf_obs.Metrics.collector config in
    let r =
      Engine.run ~sink:(Trace.observer (Hwf_obs.Metrics.feed c)) ~config
        ~policy:(Policy.random ~seed:5) (make ())
    in
    (Hwf_obs.Metrics.finish c, r.Engine.trace)
  in
  let via_trace = Hwf_obs.Metrics.of_trace trace in
  Util.checkb "sink = observer" (via_sink = via_observer);
  Util.checkb "sink = of_trace" (via_sink = via_trace)

let () =
  Alcotest.run "burst"
    [
      ( "differential",
        [
          Alcotest.test_case "corpus x policies" `Quick test_corpus_policies;
          Alcotest.test_case "corpus x fault plans" `Quick test_corpus_faults;
          Alcotest.test_case "two-band stress layouts" `Quick test_two_band_stress;
        ] );
      ( "packed trace",
        [
          Alcotest.test_case "round trip" `Quick test_packed_round_trip;
          Alcotest.test_case "observer dispatch" `Quick test_packed_observer_dispatch;
        ] );
      ( "observer lifecycle",
        [
          Alcotest.test_case "detached after run" `Quick test_observer_detached_after_run;
          Alcotest.test_case "detached after raise" `Quick
            test_observer_detached_after_raise;
          Alcotest.test_case "trace_buf reuse" `Quick test_trace_buf_reuse;
          Alcotest.test_case "metrics sink equivalence" `Quick
            test_metrics_sink_equivalence;
        ] );
    ]
