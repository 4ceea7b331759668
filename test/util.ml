(* Shared helpers for the test suites. *)
open Hwf_sim

let check = Alcotest.check
let checkb msg b = Alcotest.check Alcotest.bool msg true b
let checki = Alcotest.check Alcotest.int

let uni_procs pris =
  List.mapi (fun i pri -> Proc.make ~pid:i ~processor:0 ~priority:pri ()) pris

let uni_config ?axiom2 ~quantum pris =
  let procs = uni_procs pris in
  let levels = List.fold_left max 1 pris in
  Config.uniprocessor ?axiom2 ~quantum ~levels procs

(* Run a set of bodies and assert the trace is well-formed. *)
let run ?(step_limit = 1_000_000) ~config ~policy bodies =
  let r = Engine.run ~step_limit ~config ~policy bodies in
  (match Wellformed.check r.trace with
  | [] -> ()
  | v :: _ -> Alcotest.failf "ill-formed trace: %a" Wellformed.pp_violation v);
  r

let expect_ok name (o : Hwf_adversary.Explore.outcome) =
  (match o.counterexample with
  | None -> ()
  | Some c ->
    Alcotest.failf "%s: counterexample after %d runs: %s@.%s" name o.runs c.message
      (Render.lanes c.trace));
  (* A clean verdict must also cover every cell: an errored, timed-out
     or skipped cell is work the search never judged. *)
  if not (Hwf_resil.Resil.complete o.coverage) then
    Alcotest.failf "%s: incomplete coverage after %d runs: %a" name o.runs
      Hwf_resil.Resil.pp_coverage o.coverage

let expect_fail name (o : Hwf_adversary.Explore.outcome) =
  match o.counterexample with
  | Some _ -> ()
  | None -> Alcotest.failf "%s: expected a counterexample, none in %d runs" name o.runs

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0
