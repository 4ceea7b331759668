(** Executing a run under a fault plan.

    Translates a {!Plan.t} into the engine's fault hooks: crashes become
    the [halted] predicate (victim parked once past its crash point with
    no active quantum guarantee), the cost model becomes the [cost]
    hook, and Axiom-2 windows become the [axiom2_active] gate. Because
    all three are engine-level and deterministic, a faulted run can be
    re-executed exactly from its decision sequence — which is what makes
    schedule shrinking work on counterexamples found under faults. *)

open Hwf_sim

val run :
  ?step_limit:int ->
  ?sink:Trace.sink ->
  ?self_check:bool ->
  plan:Plan.t ->
  config:Config.t ->
  policy:Policy.t ->
  (unit -> unit) array ->
  Engine.result
(** One run of [programs] under [plan]. [sink] is passed through to
    [Engine.run] — this is also the hook the resilience layer uses to
    enforce wall-clock deadlines inside a run
    ({!Hwf_resil.Resil.guard_observer}, adapted by
    {!Hwf_sim.Trace.observer}). [self_check] (passed through
    likewise) runs the engine's self-checking reference mode; the
    burst/caching differential suite uses it to pin faulted runs to the
    naive scheduler byte-for-byte. *)

val run_recorded :
  ?step_limit:int ->
  ?sink:Trace.sink ->
  plan:Plan.t ->
  config:Config.t ->
  policy:Policy.t ->
  (unit -> unit) array ->
  Engine.result * Proc.pid list
(** Like {!run}, also returning the scheduling decisions taken, in
    order — a replayable schedule for {!replay} and
    {!Hwf_adversary.Shrink.shrink_by}. *)

val replay :
  ?step_limit:int ->
  ?sink:Trace.sink ->
  plan:Plan.t ->
  config:Config.t ->
  schedule:Proc.pid list ->
  (unit -> unit) array ->
  Engine.result
(** Re-run under [plan] following [schedule]
    (via {!Hwf_sim.Policy.scripted} with {!Hwf_sim.Policy.first} as
    fallback, so shrunk schedules — which may have gaps — still drive a
    complete run). *)

val halted_pred : Plan.t -> (Policy.pview -> bool) option
(** The crash predicate the plan induces ([None] when it has no
    crashes). Exposed for tests. *)

val jitter_hash : seed:int -> step:int -> pid:int -> int
(** The deterministic hash behind [Jitter] costs. Exposed for tests. *)
