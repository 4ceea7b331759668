open Hwf_sim

let halted_pred (plan : Plan.t) =
  match plan.crashes with
  | [] -> None
  | crashes ->
    Some
      (fun (pv : Policy.pview) ->
        List.exists
          (fun (c : Plan.crash) ->
            c.victim = pv.Policy.pid && pv.own_steps >= c.after && pv.guarantee = 0)
          crashes)

(* Deterministic per-(seed, step, pid) hash, avalanched with the usual
   multiplicative constants; no mutable state, so replay is exact. *)
let jitter_hash ~seed ~step ~pid =
  let h = (seed * 0x9E3779B1) lxor (step * 0x85EBCA6B) lxor (pid * 0xC2B2AE35) in
  let h = h lxor (h lsr 15) in
  let h = h * 0x27D4EB2F in
  (h lxor (h lsr 13)) land max_int

let cost_fn (plan : Plan.t) ~(config : Config.t) =
  match plan.cost with
  | Plan.Uniform -> None
  | Plan.Slow -> Some (fun _view _pid _op -> config.tmax)
  | Plan.Jitter seed ->
    let span = config.tmax - config.tmin + 1 in
    Some
      (fun (view : Policy.view) pid _op ->
        config.tmin + (jitter_hash ~seed ~step:view.Policy.step ~pid mod span))

let gate_fn (plan : Plan.t) =
  match plan.axiom2 with
  | Plan.Enforced -> None
  | Plan.Suspended -> Some (fun ~step:_ -> false)
  | Plan.Windows { period; off; phase } ->
    if period <= 0 || off < 0 || off > period then
      invalid_arg "Inject: Windows requires 0 <= off <= period, period > 0";
    Some (fun ~step -> (step + phase) mod period >= off)

let run ?step_limit ?sink ?self_check ~plan ~config ~policy programs =
  Engine.run ?step_limit ?sink ?self_check
    ?cost:(cost_fn plan ~config)
    ?halted:(halted_pred plan)
    ?axiom2_active:(gate_fn plan)
    ~config ~policy programs

let run_recorded ?step_limit ?sink ~plan ~config ~policy programs =
  let decisions = ref [] in
  let policy = Policy.recording policy decisions in
  let result = run ?step_limit ?sink ~plan ~config ~policy programs in
  (result, List.rev !decisions)

let replay ?step_limit ?sink ~plan ~config ~schedule programs =
  let policy = Policy.scripted ~fallback:Policy.first schedule in
  run ?step_limit ?sink ~plan ~config ~policy programs
