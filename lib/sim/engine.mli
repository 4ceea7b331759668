(** The execution engine.

    Implements the paper's model of program execution (Sec. 2) on top of
    OCaml effect handlers. Each process is a direct-style function; each
    atomic statement is announced by an {!Eff.step}; the engine executes
    exactly one statement per scheduling decision and enforces
    well-formedness:

    - {b Axiom 1} (priority scheduling): a statement of process [q] may
      execute only if no higher-priority process on [q]'s processor has
      an enabled statement (i.e. is ready mid-invocation).
    - {b Axiom 2} (quantum scheduling): if a process [p] was preempted —
      some other process on its processor executed a statement between
      two statements of [p]'s current invocation — then once [p] resumes,
      no equal-priority process on its processor may execute until [p]
      has executed [Q] statements or [p]'s invocation terminates. The
      first preemption of an invocation may occur at any point (the
      process's quantum alignment on entry is arbitrary, as in the
      lower-bound model of Sec. 4.1 / Appendix A).

    Processors interleave freely with respect to one another: any
    interleaving of statements across processors is schedulable, which
    models true multiprocessor parallelism at statement granularity.

    {b Domain-locality.} [run] allocates every piece of engine state —
    process cells, the trace, the current-process cursor — inside the
    call, and its effect handler is installed with [match_with] on the
    calling domain only (OCaml effects do not cross domains). Concurrent
    [run]s on different domains therefore never share engine state, which
    is what lets the exploration and certification layers fan whole runs
    out across a domain pool ([docs/PARALLELISM.md]); the one obligation
    on callers is that [programs] and the state they close over (e.g.
    {!Shared} stores) are freshly built per run and not shared between
    concurrent runs. *)

type stop_reason =
  | All_finished
  | Policy_stopped  (** The policy returned [None]. *)
  | Step_limit  (** The statement budget ([step_limit]) was exhausted. *)
  | Decision_limit
      (** The scheduling-decision budget (4x [step_limit]) was exhausted
          before the statement budget — the signature of a process
          spinning on statement-free (empty) invocations, which
          [step_limit] alone cannot see. Reported distinctly so
          downstream tooling can tell a long computation ([Step_limit])
          from a statement-free livelock. *)
  | All_halted
      (** Every legally runnable process was withheld by the [halted]
          fault hook: only crashed processes (and processes they block)
          remain — the fault-injection analogue of [Policy_stopped]. *)

type result = {
  trace : Trace.t;
  finished : bool array;  (** Indexed by pid. *)
  own_steps : int array;  (** Statements executed, per pid. *)
  halted : bool array;
      (** Unfinished processes the [halted] hook withheld at the end of
          the run (all [false] when the hook was not supplied). *)
  stop : stop_reason;
}

val run :
  ?step_limit:int ->
  ?cost:(Policy.view -> Proc.pid -> Op.t -> int) ->
  ?halted:(Policy.pview -> bool) ->
  ?axiom2_active:(step:int -> bool) ->
  ?sink:Trace.sink ->
  ?trace_buf:Trace.t ->
  ?self_check:bool ->
  config:Config.t ->
  policy:Policy.t ->
  (unit -> unit) array ->
  result
(** [run ~config ~policy programs] executes [programs.(pid)] for each
    process of [config] under [policy]. [step_limit] (default 1_000_000)
    bounds total statements ([Step_limit]); the engine additionally
    bounds scheduling decisions at four times the statement budget, so a
    process looping on statement-free (empty) invocations — which
    [step_limit] alone cannot see — still terminates the run, with
    [Decision_limit].

    The scheduling hot path is incremental: ready-level counts, quantum
    guards, preemption stamps and a live-process list make each decision
    one allocation-light pass over unfinished processes instead of a
    quadratic rescan (see docs/ARCHITECTURE.md). The [Policy.view.procs]
    array handed to the policy (and to [cost]) is a reused scratch
    buffer: its contents are valid only for the duration of that call
    and must not be retained (the [pview] records themselves are
    immutable and safe to keep).

    On top of that, {e forced} decisions are batched into quantum
    bursts: when the schedulable set is provably the singleton [{p}] —
    [p] is the last unfinished process ({e solo}), or the only live
    process at the top live level of its processor ({e singleton
    level}), or holds an active Axiom-2 quantum guarantee that together
    with Axiom 1 silences every other candidate ({e guarantee}) — and
    the policy declares the forced-choice contract
    ([Policy.burst_safe]), the engine executes [p]'s next decisions in
    a tight loop without rebuilding views or consulting the policy,
    falling back to the per-decision path the moment forcedness can
    lapse (guarantee drained, invocation ended, priority changed,
    limits near). Unforced decisions are cheap too: the schedulable
    list is cached and reused across decisions, invalidated by a
    version counter that every membership-changing transition bumps
    (and a matched guarantee grant/drain restores), with a dirty queue
    refreshing only the policy views that a statement could have
    changed. Batching is disabled wholesale when any per-decision hook
    is supplied ([cost], [halted], [axiom2_active]) or under
    [self_check], and list caching under [halted] or [self_check];
    both are pure optimizations — traces, counters and stop reasons
    are byte-identical either way (see docs/ARCHITECTURE.md and the
    differential suite in test/test_burst.ml).

    [cost] chooses each statement's duration in time units, clamped to
    the configuration's [tmin..tmax] (default: every statement costs
    [tmin]). In the time model the quantum guarantee of Axiom 2 protects
    [Q] time units rather than [Q] statements, so an adversarial [cost]
    of [tmax] shrinks the number of protected statements — the Tmax/Tmin
    structure of Table 1.

    [halted] is the fault-injection hook behind {!Hwf_faults.Inject}
    (the paper's halting failures, Sec. 2): a process whose view
    satisfies the predicate is withheld from the policy's choices while
    still participating in the Axiom 1/2 blocking rules — a crash is the
    scheduler never allocating the process another quantum, not the
    process vanishing. When only halted processes remain runnable, the
    run stops with [All_halted]. The predicate must be monotone in
    [own_steps] for a given pid (crashed processes stay crashed) and
    should leave processes holding an active quantum guarantee running
    (see {!Hwf_adversary.Crash}); it is consulted afresh each scheduling
    decision, so it must be stateless.

    [axiom2_active] gates enforcement of the Axiom 2 quantum guarantee
    per scheduling step (given the global statement count): while it
    returns [false], same-level processes may run despite another's
    active guarantee. Gate flips are recorded as {!Trace.Axiom2_gate}
    events so {!Wellformed.check} judges the trace against the weakened
    scheduler rather than reporting spurious quantum violations.
    Bookkeeping (pending flags, guarantee draining) continues while the
    gate is off. This models a scheduler that intermittently violates
    Axiom 2 — the paper's Sec. 2 degradation, used as a fault plan and
    as the negative control of the wait-freedom certifier.

    [sink] is installed on the run's trace ({!Trace.set_sink}) before
    any process is launched, so it sees every event in append order,
    and removed again on {e every} exit path — normal return,
    process-body exception, policy misbehaviour — so a reused
    [trace_buf] can never leak one run's sink into the next. It is the
    engine-level entry point of the observability layer; when absent
    there is no per-event cost (the trace's sinks are no-ops).
    Statement events arrive as plain arguments instead of allocated
    {!Trace.event} records ({!Hwf_obs.Metrics.sink} adapts a
    collector); {!Trace.observer} adapts a per-event function.

    [trace_buf] makes the run record into a caller-supplied trace
    ({!Trace.reset} is applied first) instead of allocating a fresh one
    — the scratch-arena hook that lets an exploration worker reuse one
    event buffer across thousands of runs. The caller promises the
    previous run's [result.trace] is dead by the time it passes the
    buffer again; the explorer severs the reference when a trace escapes
    inside a counterexample. The buffer must be configured for the same
    process count.

    [self_check] (default [false]) runs the engine's retained naive
    reference semantics alongside the incremental structures: each
    decision recomputes the maximum ready level, Axiom-2 guarding, the
    preemption flags and the runnable set by full scan — exactly as the
    pre-incremental engine did — and asserts agreement, including that
    the scratch policy views equal freshly built ones. Intended for
    tests; it restores the old quadratic cost.

    @raise Invalid_argument if the program count differs from the process
    count.
    @raise Stdlib.Exit never; exceptions raised by process bodies
    propagate. *)
