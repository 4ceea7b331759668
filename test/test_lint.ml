open Hwf_sim
open Hwf_workload
open Hwf_lint

(* The conformance linter: clean subjects lint clean, the known-bad
   corpus is rejected with the expected rules, the derived constants
   match the theorem preconditions, and the two independent Axiom-2
   implementations agree. *)

let budget = 6

let test_registry_clean () =
  List.iter
    (fun (spec : Lint.spec) ->
      let o = Lint.run ~budget spec in
      (match Lint.errors o with
      | [] -> ()
      | errs ->
        Alcotest.failf "%s: %d errors, first: %a" spec.Lint.name (List.length errs)
          Checks.pp_finding (List.hd errs));
      Util.checkb
        (spec.Lint.name ^ " replays ran")
        (o.Lint.runs > 0 && o.Lint.cfg.Cfg.derived_c > 0))
    (Registry.all ())

let test_derived_constants () =
  (* Fig. 3's derived constant is exactly the Theorem 1 count — the
     acceptance pin for the whole quantum-shape checker. *)
  let o = Lint.run ~budget (Registry.fig3 ()) in
  Alcotest.(check int)
    "fig3 derived c" Hwf_core.Uni_consensus.statements_per_decide o.Lint.cfg.Cfg.derived_c;
  (* Fig. 5/7 and the universal construction stay within the declared
     constants the certifier uses for its own-step bounds. *)
  let within spec bound =
    let o = Lint.run ~budget spec in
    if o.Lint.cfg.Cfg.derived_c > bound then
      Alcotest.failf "%s: derived %d > declared %d" spec.Lint.name o.Lint.cfg.Cfg.derived_c
        bound
  in
  within (Registry.fig5 ())
    (Hwf_core.Bounds.fig5_stmt_const * Layout.levels [ (0, 1); (0, 2); (0, 3) ]);
  within (Registry.universal ()) (Hwf_core.Bounds.universal_stmt_const * 3)

let test_fig9_helping_loop () =
  (* The Sec. 5 spin-wait must be classified helping-bounded, not
     unbounded: the loser loops on the winner's Output write. *)
  let o = Lint.run ~budget (Registry.fig9 ()) in
  Util.checkb "lints clean" (Lint.ok o);
  Util.checkb "has a helping loop"
    (List.exists (fun (l : Cfg.loop) -> l.Cfg.l_class = Cfg.Helping) o.Lint.cfg.Cfg.loops);
  Util.checkb "no unbounded loop"
    (List.for_all
       (fun (l : Cfg.loop) -> l.Cfg.l_class <> Cfg.Unbounded)
       o.Lint.cfg.Cfg.loops)

let test_corpus_rejected () =
  List.iter
    (fun (c : Hwf_lint_corpus.Corpus.case) ->
      let o, fired = Hwf_lint_corpus.Corpus.fires ~budget c in
      if not fired then
        Alcotest.failf "corpus %s: expected rule %s, findings: %a" o.Lint.spec.Lint.name
          c.Hwf_lint_corpus.Corpus.expected_rule
          Fmt.(Dump.list Checks.pp_finding)
          o.Lint.findings)
    (Hwf_lint_corpus.Corpus.all ())

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_report_deterministic () =
  let once () = Report.to_string [ Lint.run ~budget (Registry.fig3 ()) ] in
  let a = once () and b = once () in
  Alcotest.(check string) "byte-equal reports" a b;
  Util.checkb "carries schema tag" (String.length a > 0 && contains ~sub:"hwf-lint/1" a)

(* ---- satellite 1: the peek/poke guard without a tap installed ---- *)

let test_peek_guard_raises () =
  let config =
    Config.uniprocessor ~quantum:8 ~levels:1 [ Proc.make ~pid:0 ~processor:0 ~priority:1 () ]
  in
  let x = Shared.make "guard.x" 0 in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "op" (fun () ->
            ignore (Shared.read x);
            ignore (Shared.peek x)));
    |]
  in
  Alcotest.check_raises "peek rejected"
    (Invalid_argument "Shared.peek: harness-only access to guard.x from process code")
    (fun () -> ignore (Engine.run ~config ~policy:Policy.first bodies));
  (* Outside process code the same peek is the supported harness path. *)
  Alcotest.(check int) "harness peek still works" 0 (Shared.peek x)

(* The refusal names the element, although a peek renders nothing
   until it is refused or tapped: [x[2]] is first rendered here. *)
let test_peek_guard_names_array_element () =
  let config =
    Config.uniprocessor ~quantum:8 ~levels:1 [ Proc.make ~pid:0 ~processor:0 ~priority:1 () ]
  in
  let xs = Shared.array (Shared.Name.v "x") 3 (fun _ -> 0) in
  let bodies =
    [| (fun () -> Eff.invocation "op" (fun () -> ignore (Shared.peek xs.(1)))) |]
  in
  Alcotest.check_raises "peek rejected, element named"
    (Invalid_argument "Shared.peek: harness-only access to x[2] from process code")
    (fun () -> ignore (Engine.run ~config ~policy:Policy.first bodies))

let test_poke_guard_raises () =
  let config =
    Config.uniprocessor ~quantum:8 ~levels:1 [ Proc.make ~pid:0 ~processor:0 ~priority:1 () ]
  in
  let x = Shared.make "guard.y" 0 in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "op" (fun () ->
            ignore (Shared.read x);
            Shared.poke x 1));
    |]
  in
  Alcotest.check_raises "poke rejected"
    (Invalid_argument "Shared.poke: harness-only access to guard.y from process code")
    (fun () -> ignore (Engine.run ~config ~policy:Policy.first bodies))

let test_instrumentation_escape_hatch () =
  let config =
    Config.uniprocessor ~quantum:8 ~levels:1 [ Proc.make ~pid:0 ~processor:0 ~priority:1 () ]
  in
  let x = Shared.make "guard.z" 41 in
  let seen = ref 0 in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "op" (fun () ->
            ignore (Shared.read x);
            Runtime.instrumentation (fun () -> seen := Shared.peek x)));
    |]
  in
  let r = Engine.run ~config ~policy:Policy.first bodies in
  Util.checkb "finished" (Array.for_all Fun.id r.finished);
  Alcotest.(check int) "instrumented peek saw the value" 41 !seen

(* ---- satellite 2: the two Axiom-2 implementations cross-validate ---- *)

let quantum_pairs vs =
  List.filter_map
    (fun (v : Wellformed.violation) ->
      match v.Wellformed.axiom with
      | `Quantum | `Burst -> Some (v.Wellformed.at, v.Wellformed.pid, v.Wellformed.blame)
      | `Priority -> None)
    vs

let test_burst_checker_fires () =
  (* Hand-built violating trace: p0 is preempted, resumes (earning a
     Q=4 guarantee), and p1 then executes a same-priority statement
     inside p0's burst. Both implementations must flag statement 3. *)
  let config =
    Config.uniprocessor ~quantum:4 ~levels:1
      [ Proc.make ~pid:0 ~processor:0 ~priority:1 ();
        Proc.make ~pid:1 ~processor:0 ~priority:1 () ]
  in
  let t = Trace.create config in
  Trace.add t (Trace.Inv_begin { pid = 0; inv = 0; label = "a" });
  Trace.add t (Trace.Stmt { idx = 0; pid = 0; op = Op.local "s"; inv = 0; cost = 1 });
  Trace.add t (Trace.Inv_begin { pid = 1; inv = 0; label = "b" });
  Trace.add t (Trace.Stmt { idx = 1; pid = 1; op = Op.local "s"; inv = 0; cost = 1 });
  Trace.add t (Trace.Stmt { idx = 2; pid = 0; op = Op.local "s"; inv = 0; cost = 1 });
  Trace.add t (Trace.Stmt { idx = 3; pid = 1; op = Op.local "s"; inv = 0; cost = 1 });
  (match Wellformed.check t with
  | [ { Wellformed.at = 3; pid = 1; axiom = `Quantum; blame = 0 } ] -> ()
  | vs -> Alcotest.failf "check: expected one quantum violation at 3, got %a"
            Fmt.(Dump.list Wellformed.pp_violation) vs);
  match Wellformed.axiom2_bursts t with
  | [ { Wellformed.at = 3; pid = 1; axiom = `Burst; blame = 0 } ] -> ()
  | vs ->
    Alcotest.failf "bursts: expected one burst violation at 3, got %a"
      Fmt.(Dump.list Wellformed.pp_violation) vs

let test_burst_agrees_on_engine_traces () =
  (* Engine-produced traces are well-formed, so both checkers must
     report nothing — and they must agree violation-for-violation on
     every replayed schedule of the registry's smallest subject. *)
  let spec = Registry.fig3 () in
  List.iter
    (fun (name, policy) ->
      let r =
        Engine.run ~step_limit:100_000 ~config:spec.Lint.config ~policy:(policy ())
          (spec.Lint.make ())
      in
      let a = quantum_pairs (Wellformed.check r.Engine.trace) in
      let b = quantum_pairs (Wellformed.axiom2_bursts r.Engine.trace) in
      Alcotest.(check (list (triple int int int))) (name ^ " agree") a b;
      Alcotest.(check (list (triple int int int))) (name ^ " well-formed") [] a)
    (Recorder.battery ~budget:8 ~fair_only:false ())

let test_burst_respects_gate () =
  (* Same violating trace, but the gate is off around the offending
     statement: neither implementation may report it. *)
  let config =
    Config.uniprocessor ~quantum:4 ~levels:1
      [ Proc.make ~pid:0 ~processor:0 ~priority:1 ();
        Proc.make ~pid:1 ~processor:0 ~priority:1 () ]
  in
  let t = Trace.create config in
  Trace.add t (Trace.Inv_begin { pid = 0; inv = 0; label = "a" });
  Trace.add t (Trace.Stmt { idx = 0; pid = 0; op = Op.local "s"; inv = 0; cost = 1 });
  Trace.add t (Trace.Inv_begin { pid = 1; inv = 0; label = "b" });
  Trace.add t (Trace.Stmt { idx = 1; pid = 1; op = Op.local "s"; inv = 0; cost = 1 });
  Trace.add t (Trace.Stmt { idx = 2; pid = 0; op = Op.local "s"; inv = 0; cost = 1 });
  Trace.add t (Trace.Axiom2_gate { at = 3; active = false });
  Trace.add t (Trace.Stmt { idx = 3; pid = 1; op = Op.local "s"; inv = 0; cost = 1 });
  Alcotest.(check int) "check suppressed" 0 (List.length (quantum_pairs (Wellformed.check t)));
  Alcotest.(check int) "bursts suppressed" 0
    (List.length (quantum_pairs (Wellformed.axiom2_bursts t)))

let () =
  Alcotest.run "lint"
    [
      ( "linter",
        [
          Alcotest.test_case "registry lints clean" `Quick test_registry_clean;
          Alcotest.test_case "derived constants match theorems" `Quick test_derived_constants;
          Alcotest.test_case "fig9 helping loop" `Quick test_fig9_helping_loop;
          Alcotest.test_case "corpus rejected" `Quick test_corpus_rejected;
          Alcotest.test_case "report deterministic" `Quick test_report_deterministic;
        ] );
      ( "guard",
        [
          Alcotest.test_case "peek raises in process code" `Quick test_peek_guard_raises;
          Alcotest.test_case "peek refusal names the array element" `Quick
            test_peek_guard_names_array_element;
          Alcotest.test_case "poke raises in process code" `Quick test_poke_guard_raises;
          Alcotest.test_case "instrumentation escape hatch" `Quick
            test_instrumentation_escape_hatch;
        ] );
      ( "axiom2-burst",
        [
          Alcotest.test_case "fires on violating trace" `Quick test_burst_checker_fires;
          Alcotest.test_case "agrees with check on engine traces" `Quick
            test_burst_agrees_on_engine_traces;
          Alcotest.test_case "respects the gate" `Quick test_burst_respects_gate;
        ] );
    ]
