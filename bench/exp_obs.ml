(* E18 — observability overhead.

   The engine's sink hook must be free when nothing is installed: the
   append path then calls no-op sinks. This
   experiment measures that claim the same way E17 measures the
   parallel contract — on every bench run, not just once. Three
   configurations execute the identical workload (same config, policy
   seed and programs, so the schedules are statement-for-statement
   equal):

     off       engine run with no observer installed (the default)
     count     a minimal observer (one int incr per event)
     metrics   the full Hwf_obs.Metrics collector

   Reported per configuration: mean wall-clock per run and the
   overhead relative to `off`. The `count` row isolates the hook
   dispatch itself; `metrics` adds the per-event accounting. Numbers
   are recorded in EXPERIMENTS.md (E18).

   This module also hosts the bench harness's structured-export demo:
   `bench/main.exe --trace-out F / --metrics-out F` writes a canonical
   deterministic run (Fig. 3, quantum 8, two equal-priority processes,
   first-fit policy) through the same JSONL writers the CLI uses. *)

open Hwf_sim
open Hwf_workload

let wall f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* One workload execution; identical schedule in all configurations
   (the observer cannot influence scheduling). *)
let one_run ?observer () =
  let layout = [ (0, 1); (0, 1); (0, 2) ] in
  let config = Layout.to_config ~quantum:6 layout in
  let script = Scenarios.random_script ~seed:11 ~n:3 ~ops_per:4 in
  let b = Scenarios.hybrid_cas ~name:"e18" ~quantum:6 ~layout ~script in
  let inst = b.Hwf_adversary.Explore.make () in
  ignore
    (Engine.run ~step_limit:4_000_000 ?sink:(Option.map Trace.observer observer) ~config
       ~policy:(Policy.random ~seed:5)
       inst.Hwf_adversary.Explore.programs)

let run ~quick =
  Tbl.section "E18: observability overhead (observer hook on vs off)";
  let reps = if quick then 30 else 200 in
  let timed mk =
    one_run ?observer:(mk ()) ();
    (* warm-up *)
    let t = wall (fun () -> for _ = 1 to reps do one_run ?observer:(mk ()) () done) in
    t /. float_of_int reps
  in
  let off = timed (fun () -> None) in
  let counter = ref 0 in
  let count = timed (fun () -> Some (fun _ -> incr counter)) in
  let config = Layout.to_config ~quantum:6 [ (0, 1); (0, 1); (0, 2) ] in
  let metrics =
    timed (fun () -> Some (Hwf_obs.Metrics.feed (Hwf_obs.Metrics.collector config)))
  in
  let pct base x = if base > 0. then (x /. base -. 1.) *. 100. else 0. in
  Tbl.print
    ~title:(Printf.sprintf "mean wall-clock per run, %d runs each" reps)
    ~header:[ "observer"; "us/run"; "overhead" ]
    [
      [ "off (no sink)"; Printf.sprintf "%.1f" (off *. 1e6); "baseline" ];
      [ "count only"; Printf.sprintf "%.1f" (count *. 1e6);
        Printf.sprintf "%+.1f%%" (pct off count) ];
      [ "full metrics"; Printf.sprintf "%.1f" (metrics *. 1e6);
        Printf.sprintf "%+.1f%%" (pct off metrics) ];
    ];
  Tbl.note
    "identical workload and schedule in all rows; 'off' pays one option\n\
     match per event and nothing else (the acceptance bar: no measurable\n\
     overhead when no sink is configured)."

(* The canonical demo export: small, deterministic (fixed policy, no
   seeds involved), so repeated invocations produce identical bytes. *)
let export ~trace_out ~metrics_out =
  if trace_out <> None || metrics_out <> None then begin
    let layout = [ (0, 1); (0, 1) ] in
    let config = Layout.to_config ~quantum:8 layout in
    let b =
      Scenarios.consensus ~name:"bench.demo" ~impl:Scenarios.Fig3 ~quantum:8 ~layout
    in
    let inst = b.Scenarios.scenario.Hwf_adversary.Explore.make () in
    let collector = Hwf_obs.Metrics.collector config in
    let r =
      Engine.run ~step_limit:1_000_000
        ~sink:(Trace.observer (Hwf_obs.Metrics.feed collector))
        ~config ~policy:Policy.first inst.Hwf_adversary.Explore.programs
    in
    Option.iter
      (fun path ->
        Hwf_obs.Jsonl.write_trace ~path r.Engine.trace;
        Tbl.note "trace: %s (canonical fig3 demo run)" path)
      trace_out;
    Option.iter
      (fun path ->
        Hwf_obs.Jsonl.write_metrics ~path (Hwf_obs.Metrics.finish collector);
        Tbl.note "metrics: %s (canonical fig3 demo run)" path)
      metrics_out
  end
