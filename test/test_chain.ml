open Hwf_sim
open Hwf_core
open Hwf_adversary
open Hwf_workload

(* The consensus-chain kernel and its Q-C&S / Q-F&I wrappers
   (DESIGN.md Substitution 2). *)

let test_solo_semantics () =
  let config = Util.uni_config ~quantum:100 [ 1 ] in
  let out = ref [] in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "ops" (fun () ->
            let x = Q_cas.make "x" 0 in
            out := [];
            out := `B (Q_cas.cas x ~who:0 ~expected:0 ~desired:5) :: !out;
            out := `B (Q_cas.cas x ~who:0 ~expected:0 ~desired:9) :: !out;
            out := `I (Q_cas.read x) :: !out;
            Q_cas.write x ~who:0 7;
            out := `I (Q_cas.read x) :: !out));
    |]
  in
  ignore (Util.run ~config ~policy:Policy.first bodies);
  match List.rev !out with
  | [ `B true; `B false; `I 5; `I 7 ] -> ()
  | _ -> Alcotest.fail "unexpected op results"

let test_qfai_sequence () =
  let config = Util.uni_config ~quantum:100 [ 1 ] in
  let out = ref [] in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "ops" (fun () ->
            let c = Q_fai.make "c" 10 in
            for _ = 1 to 4 do
              out := Q_fai.fetch_and_increment c ~who:0 :: !out
            done;
            out := Q_fai.read c :: !out));
    |]
  in
  ignore (Util.run ~config ~policy:Policy.first bodies);
  Alcotest.(check (list int)) "pre-increment values" [ 10; 11; 12; 13; 14 ] (List.rev !out)

let test_exhaustive_qcas () =
  let script = [ [ Scenarios.Cas (0, 1); Scenarios.Cas (1, 2) ]; [ Scenarios.Cas (0, 5); Scenarios.Rd ] ] in
  let s = Scenarios.q_cas ~name:"qc" ~quantum:40 ~n:2 ~script in
  let o = Explore.explore ~preemption_bound:3 ~max_runs:500_000 s in
  Util.expect_ok "qcas 2x2" o

let test_exhaustive_qcas_3 () =
  let script = [ [ Scenarios.Cas (0, 1) ]; [ Scenarios.Cas (0, 2) ]; [ Scenarios.Cas (0, 3) ] ] in
  let s = Scenarios.q_cas ~name:"qc3" ~quantum:40 ~n:3 ~script in
  Util.expect_ok "qcas 3x1" (Explore.explore ~preemption_bound:3 ~max_runs:500_000 s)

let test_reads_from_other_processes () =
  let script = [ [ Scenarios.Cas (0, 1); Scenarios.Rd ]; [ Scenarios.Rd; Scenarios.Rd ] ] in
  let s = Scenarios.q_cas ~name:"qcr" ~quantum:40 ~n:2 ~script in
  Util.expect_ok "reads linearize" (Explore.explore ~preemption_bound:3 ~max_runs:500_000 s)

(* Wait-freedom at one level: at most 2 attempts per op when Q covers two
   attempts (the chain contract). *)
let test_two_attempt_bound () =
  let n = 3 in
  let config = Util.uni_config ~quantum:64 (List.init n (fun _ -> 1)) in
  let check_with policy_name policy =
    let obj = Q_cas.make "x" 0 in
    let bodies =
      Array.init n (fun pid () ->
          for k = 0 to 2 do
            Eff.invocation "cas" (fun () ->
                ignore
                  (Q_cas.cas obj ~who:pid ~expected:(100 * pid) ~desired:((100 * pid) + k)))
          done)
    in
    let r = Util.run ~config ~policy bodies in
    Util.checkb (policy_name ^ " finished") (Array.for_all Fun.id r.finished);
    Util.checkb
      (Printf.sprintf "%s: max attempts %d <= 2" policy_name (Q_cas.max_attempts obj))
      (Q_cas.max_attempts obj <= 2)
  in
  check_with "rr" (Policy.round_robin ());
  check_with "stagger" (Stagger.max_interleave ());
  check_with "random" (Policy.random ~seed:3)

(* Ablation: the "obvious" announce/validate/write construction is
   refuted by the model checker — the motivation for the chain design
   (DESIGN.md Substitution 2). *)
let test_naive_qcas_is_broken () =
  let n = 2 in
  let config = Util.uni_config ~quantum:6 (List.init n (fun _ -> 1)) in
  let make () =
    let obj = Q_cas_naive.make "nx" 0 in
    let hist = Hwf_check.Hist.create () in
    let programs =
      Array.init n (fun pid () ->
          Eff.invocation "cas" (fun () ->
              ignore
                (Hwf_check.Hist.wrap hist ~pid (Scenarios.Cas (0, pid + 1)) (fun () ->
                     `Bool (Q_cas_naive.cas obj ~who:pid ~expected:0 ~desired:(pid + 1)))));
          Eff.invocation "read" (fun () ->
              ignore
                (Hwf_check.Hist.wrap hist ~pid Scenarios.Rd (fun () ->
                     `Val (Q_cas_naive.read obj)))))
    in
    let check (r : Engine.result) =
      if not (Array.for_all Fun.id r.finished) then Error "unfinished"
      else
        Hwf_check.Lincheck.check_hist
          (Hwf_check.Lincheck.make_spec ~init:0 ~apply:(fun s op ->
               match op with
               | Scenarios.Cas (e, d) -> if s = e then (d, `Bool true) else (s, `Bool false)
               | Scenarios.Rd -> (s, `Val s)))
          hist
    in
    Explore.{ programs; check }
  in
  let o = Explore.explore ~max_runs:500_000 Explore.{ name = "naive"; config; make } in
  Util.expect_fail "naive q-cas must be refuted" o;
  (* ... while the chain-based one passes the same scenario shape. *)
  let script = [ [ Scenarios.Cas (0, 1); Scenarios.Rd ]; [ Scenarios.Cas (0, 2); Scenarios.Rd ] ] in
  Util.expect_ok "chain q-cas passes it"
    (Explore.explore ~preemption_bound:3 ~max_runs:500_000
       (Scenarios.q_cas ~name:"cq" ~quantum:64 ~n:2 ~script))

(* Random volume across priority levels: correctness contract is per
   level; reads may come from any level. Writers stay on one level. *)
let prop_qcas_random_volume =
  Util.qtest ~count:40 "qcas random schedules stay linearizable"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let script = Scenarios.random_script ~seed ~n:4 ~ops_per:3 in
      let s = Scenarios.q_cas ~name:"qcv" ~quantum:60 ~n:4 ~script in
      (Explore.sample ~strategy:Randsched.Naive ~runs:25 ~seed s).counterexample = None)

(* Generic chain: an append-only log state machine. *)
let test_chain_custom_state_machine () =
  let config = Util.uni_config ~quantum:100 [ 1; 1 ] in
  let log = Chain.make ~name:"log" ~init:[] ~apply:(fun s x -> (x :: s, List.length s)) in
  let out = Array.make 2 (-1) in
  let bodies =
    Array.init 2 (fun pid () ->
        Eff.invocation "append" (fun () -> out.(pid) <- Chain.invoke log ~who:pid pid))
  in
  let r = Util.run ~config ~policy:(Policy.random ~seed:5) bodies in
  Util.checkb "finished" (Array.for_all Fun.id r.finished);
  Util.checki "two ops applied" 2 (Chain.ops_count log);
  let positions = List.sort compare (Array.to_list out) in
  Alcotest.(check (list int)) "distinct positions" [ 0; 1 ] positions;
  Util.checki "final length" 2 (List.length (Chain.peek_state log))

let test_chain_read_is_snapshot () =
  (* A read between two writes returns the intermediate state. *)
  let config = Util.uni_config ~quantum:100 [ 1 ] in
  let seen = ref (-1) in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "ops" (fun () ->
            let c = Q_fai.make "c" 0 in
            ignore (Q_fai.fetch_and_increment c ~who:0);
            seen := Q_fai.read c;
            ignore (Q_fai.fetch_and_increment c ~who:0)));
    |]
  in
  ignore (Util.run ~config ~policy:Policy.first bodies);
  Util.checki "snapshot" 1 !seen

(* Cell names are rendered on first use but must carry the index the
   cell had when it was allocated: render early cells only after later
   ones have grown the vectors, in reverse allocation order. *)
let test_names_capture_creation_indices () =
  let log = Chain.make ~name:"log" ~init:0 ~apply:(fun s () -> (s + 1, s)) in
  let v1 = Chain.val_cell log 1 in
  let s0 = Chain.slot_cell log 0 in
  let v3 = Chain.val_cell log 3 in
  let s2 = Chain.slot_cell log 2 in
  let r = Renaming.make "names" in
  let r0 = Renaming.slot r 0 in
  let r2 = Renaming.slot r 2 in
  let r4 = Renaming.slot r 4 in
  let tapped = ref [] in
  Runtime.with_tap
    (fun a -> tapped := a.Runtime.var :: !tapped)
    (fun () -> ignore (Uni_consensus.peek s0));
  Alcotest.(check (list string))
    "names rendered in reverse equal the eagerly formatted ones"
    [
      "names.slot[5]";
      "names.slot[3]";
      "names.slot[1]";
      "log.slot[2]";
      "log.val[3]";
      "log.val[2]";
      "log.slot[0].P[3]";
      "log.slot[0]";
      "log.val[1]";
    ]
    [
      Uni_consensus.name r4;
      Uni_consensus.name r2;
      Uni_consensus.name r0;
      Uni_consensus.name s2;
      Shared.name v3;
      Shared.name (Chain.val_cell log 2);
      List.hd !tapped;
      Uni_consensus.name s0;
      Shared.name v1;
    ]

let () =
  Alcotest.run "chain"
    [
      ( "unit",
        [
          Alcotest.test_case "solo cas semantics" `Quick test_solo_semantics;
          Alcotest.test_case "fai sequence" `Quick test_qfai_sequence;
          Alcotest.test_case "custom state machine" `Quick test_chain_custom_state_machine;
          Alcotest.test_case "read snapshot" `Quick test_chain_read_is_snapshot;
          Alcotest.test_case "names capture creation-time indices" `Quick
            test_names_capture_creation_indices;
        ] );
      ( "linearizability",
        [
          Alcotest.test_case "exhaustive 2x2" `Slow test_exhaustive_qcas;
          Alcotest.test_case "exhaustive 3x1" `Slow test_exhaustive_qcas_3;
          Alcotest.test_case "reads" `Slow test_reads_from_other_processes;
        ] );
      ( "wait-freedom",
        [ Alcotest.test_case "two-attempt bound" `Quick test_two_attempt_bound ] );
      ( "ablation",
        [ Alcotest.test_case "naive q-cas refuted" `Quick test_naive_qcas_is_broken ] );
      ("props", [ prop_qcas_random_volume ]);
    ]
