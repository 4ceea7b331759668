(** The replay harness behind the conformance linter.

    The "static" analysis of [Hwf_lint] is enumerative symbolic replay:
    process bodies are ordinary OCaml closures, so instead of parsing
    syntax the recorder runs them under {!Hwf_sim.Engine.run} with an
    instrumented store and reconstructs their control-flow from the
    announced statements. Bodies are deterministic given the values
    their reads return, and those values depend only on the
    interleaving — so replaying a battery of schedules (the {e branch
    budget}) enumerates the data-dependent branch outcomes the
    schedules can produce. [docs/LINT.md] spells out the resulting
    over-/under-approximation caveats. *)

open Hwf_sim

type window = {
  w_pid : int;  (** Executing process; [-1] for launch-time prelude code. *)
  w_op : Op.t option;
      (** [Some op] — the window covers the execution of the announced
          statement [op]. [None] — boundary code between an invocation
          event and the next statement. *)
  w_inv : int;  (** Invocation index; [-1] outside any invocation. *)
  w_label : string;  (** Invocation label; [""] outside. *)
  mutable w_accesses : Runtime.access list;
      (** Concrete store accesses attributed to this window, in order. *)
}

type run = {
  policy_name : string;
  outcome : (Engine.result, exn) result;
      (** [Error e] when the engine (or a body) raised — e.g. an illegal
          mid-invocation {!Hwf_sim.Eff.set_priority}. The events and
          windows gathered up to that point are still available. *)
  events : Trace.event list;
      (** The full event history, collected through the engine's sink hook
          (so it survives an engine exception, unlike the trace). *)
  windows : window list;  (** Chronological access windows. *)
}

val record :
  ?step_limit:int ->
  policy_name:string ->
  config:Config.t ->
  policy:Policy.t ->
  (unit -> unit) array ->
  run
(** One instrumented replay: installs an access tap
    ({!Hwf_sim.Runtime.with_tap}) and a trace sink around
    {!Hwf_sim.Engine.run} and correlates every store access with the
    statement (or boundary segment) that was executing. [step_limit]
    defaults to 200_000; a run cut short by it is how the linter detects
    statically unbounded loops. *)

val battery :
  ?budget:int -> fair_only:bool -> unit -> (string * (unit -> Policy.t)) list
(** The deterministic schedule battery, at most [budget] (default 12)
    entries: round-robin, the deterministic extremes (first,
    highest-pid, by-priority) and seeded random policies. With
    [fair_only] the unfair deterministic policies are dropped — required
    for subjects whose termination assumes fair scheduling (Sec. 5
    helping loops, which an unfair policy may legally starve). *)

val record_battery :
  ?budget:int ->
  ?step_limit:int ->
  fair_only:bool ->
  config:Config.t ->
  make:(unit -> (unit -> unit) array) ->
  unit ->
  run list
(** [record] once per battery entry, building fresh programs (and the
    shared state they close over) for every replay. *)
