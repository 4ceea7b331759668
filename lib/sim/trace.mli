(** Execution histories.

    A trace is the machine-readable form of the paper's notion of a
    history: the sequence of atomic statement executions, interleaved
    with invocation boundaries and free-form notes. Traces are the input
    to the well-formedness checker ({!Wellformed}), the interleaving
    renderer ({!Render}) and the linearizability checker.

    {b Representation.} Events are stored packed: one flat int array of
    variable-stride records (tag + pid in a header word, int payloads),
    with ops and labels interned into side tables. The {!event} records
    handed out by {!iter}/{!fold}/{!events} are decoded lazily, on the
    walk; appending a statement ({!add_stmt}) is a handful of int
    stores with no allocation. The encoding is an internal detail — the
    event-level API is unchanged and decode order is append order. *)

type event =
  | Stmt of { idx : int; pid : Proc.pid; op : Op.t; inv : int; cost : int }
      (** The [idx]-th statement of the run, executed by [pid] as part of
          its [inv]-th invocation (0-based). [cost] is the statement's
          duration in time units, in [tmin..tmax] (1 in the pure
          statement-count model). *)
  | Inv_begin of { pid : Proc.pid; inv : int; label : string }
  | Inv_end of { pid : Proc.pid; inv : int; label : string }
  | Note of { pid : Proc.pid; text : string }
  | Set_priority of { pid : Proc.pid; priority : int }
      (** The process changed its own priority between invocations
          (Sec. 5: dynamic priorities). *)
  | Axiom2_gate of { at : int; active : bool }
      (** Fault injection toggled enforcement of the Axiom 2 quantum
          guarantee at statement index [at] ({!Engine.run}'s
          [axiom2_active] hook). Recorded so a trace remains
          self-describing: {!Wellformed.check} suspends its quantum
          checks while the gate is off. Absent in unfaulted runs. *)

type stmt_sink = idx:int -> pid:Proc.pid -> op:Op.t -> inv:int -> cost:int -> unit
(** Allocation-free observer entry point for statement events: the
    fields arrive as arguments (all immediates plus the interned op
    pointer), so observing a statement allocates nothing. *)

type sink = {
  on_stmt : stmt_sink;  (** Every statement, in append order. *)
  on_event : event -> unit;  (** Every {e non-statement} event. *)
}
(** A split observer: the hot event class (statements) bypasses event
    allocation entirely; the rare classes arrive as ordinary events.
    See {!Hwf_obs.Metrics.sink} for the canonical implementation. *)

type t

val create : Config.t -> t

val reset : t -> unit
(** Return the trace to its just-created state — no events, zero
    counters, no sink — while keeping the underlying packed buffer
    and intern tables, so one trace can serve as a reusable per-worker
    scratch across many engine runs (see {!Engine.run}'s [trace_buf]).
    The configuration is retained: a reset trace is only valid for runs
    of the same configuration. *)

val config : t -> Config.t

val observer : (event -> unit) -> sink
(** Adapt a generic per-event observer to a {!sink}: statements are
    decoded into allocated {!event} records before [f] sees them, so
    hot-path observers should build a {!sink} directly
    ({!Hwf_obs.Metrics.sink}). *)

val set_sink : t -> sink -> unit
(** Install a sink that sees every event as it is appended (after the
    trace's own bookkeeping), replacing any installed one. When nothing
    is installed, the append path runs against no-op sinks — no option
    match, no event allocation for statements. *)

val clear_sink : t -> unit
(** Remove the installed sink (a no-op when none is installed).
    {!Engine.run} installs and removes its sink symmetrically on every
    exit path, so a trace never escapes a run with a stale sink
    attached. *)

val add : t -> event -> unit

val add_stmt : t -> pid:Proc.pid -> op:Op.t -> inv:int -> cost:int -> unit
(** Append a statement event whose [idx] is the running statement count
    — the engine's hot path. Equivalent to
    [add t (Stmt { idx = statements t; pid; op; inv; cost })] but
    allocation-free (no event record is built unless the installed sink
    is an {!observer} adapter). *)

val add_inv_begin : t -> pid:Proc.pid -> inv:int -> label:string -> unit

val add_inv_end : t -> pid:Proc.pid -> inv:int -> label:string -> unit

val events : t -> event list
(** A fresh list copy of the whole history — O(length) allocation. For
    a single pass prefer {!iter} or {!fold}, which walk the underlying
    vector without copying. *)

val iter : (event -> unit) -> t -> unit
(** [iter f t] applies [f] to every event in append order, without
    materializing a list. *)

val fold : ('acc -> event -> 'acc) -> 'acc -> t -> 'acc
(** [fold f acc t] folds over events in append order, without
    materializing a list. *)

val length : t -> int
(** Number of events (not statements). *)

val statements : t -> int
(** Number of statements executed. *)

val time : t -> int
(** Total time units consumed (equals [statements] when all costs are 1). *)

val own_statements : t -> Proc.pid -> int
(** Statements executed by [pid], maintained incrementally on {!add}
    (O(1), not a refold of the event vector).
    @raise Invalid_argument if [pid] is outside the configuration. *)

val count_now : t -> unit
(** Engine-internal: record that the running program observed the global
    statement clock ([Eff.now]). Not an event — a plain counter. *)

val now_reads : t -> int
(** How many times the run observed the global statement clock. The
    explorer's sleep-set pruning ({!Hwf_adversary.Explore}) is sound
    only for runs that never read global state outside their [Shared]
    footprints; [now_reads > 0] is the taint signal that disables it. *)

val count_stamp : t -> unit
(** Engine-internal: record that the running program observed its
    per-processor timestamp ([Eff.stamp]). Not an event — a plain
    counter. *)

val stamp_reads : t -> int
(** How many times the run observed a per-processor timestamp. Unlike
    {!now_reads} this does {e not} taint partial-order pruning: the
    per-processor statement count is invariant under commutation of
    independent statements (same-processor statements never commute),
    so a stamp-reading run stays prunable. Counted for observability
    only. *)

val pp_event : event Fmt.t

val pp : t Fmt.t
(** One event per line. *)
