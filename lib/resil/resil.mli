(** The harness resilience layer (see [docs/ROBUSTNESS.md]).

    Long campaigns — E16-style fault sweeps, frontier explorations,
    randomized bake-offs — run for hours across domains, and a single
    stuck or crashing cell must not throw the rest away. This module
    provides the four pieces the campaign runners share:

    - {b per-cell deadlines}: a wall-clock/fuel budget a cell's work is
      checked against, cooperatively (between engine runs and shrink
      replays) and inside the engine (via {!guard_observer});
    - {b a documented error taxonomy} distinguishing transient failures
      (worth retrying) from harness bugs (fail the cell, keep the
      campaign) — genuine counterexamples are {e values} returned by
      the cell function and never enter this taxonomy;
    - {b bounded retry with exponential backoff}, with demotion: the
      attempt number is passed back to the caller's deadline builder so
      a retried cell can run with a reduced budget (graceful
      degradation instead of abort);
    - {b coverage accounting}: every campaign result reports
      [cells_done / cells_total], timeouts, errors, retries and
      degradation explicitly, so partial results are never silently
      presented as complete.

    {!map} composes these with {!Hwf_par.Pool.map}: because every cell
    is wrapped in {!run_cell}, no exception ever reaches the pool, so
    one bad cell cannot poison the output array.

    The interrupt flag ({!install_interrupt_handlers}) converts
    SIGINT/SIGTERM into cooperative cancellation: {!map} stops claiming
    new cells, completed work is kept (and, through the campaign
    runners' checkpoints, journaled), and the process can flush partial
    reports with an explicit truncation marker before exiting. *)

(** {1 Deadlines} *)

type deadline
(** A per-cell budget: an absolute wall-clock expiry and/or a fuel
    (statement) budget. Immutable except for the fuel counter. *)

exception Deadline_exceeded of string
(** Raised by {!check_deadline} / {!guard_observer} when a deadline
    expires. Classified as a timeout, not an error, by {!run_cell}. *)

val deadline : ?wall_s:float -> ?fuel:int -> unit -> deadline
(** A deadline expiring [wall_s] seconds from now and/or after [fuel]
    units have been {!spend}-ed. Omitting both yields {!no_deadline}. *)

val no_deadline : deadline
(** Never expires. *)

val expired : deadline -> bool

val check_deadline : deadline -> unit
(** @raise Deadline_exceeded if the deadline has expired. Cheap enough
    to call between engine runs and shrink replays. *)

val spend : deadline -> int -> unit
(** Consume fuel. Does not raise; the next {!check_deadline} does. *)

val wall_left_s : deadline -> float option
(** Seconds until wall-clock expiry ([None] if no wall budget). *)

val guard_observer : ?every:int -> deadline -> ('a -> unit)
(** A per-event guard: counts calls and polls the wall clock every
    [every] events (default 2048), raising {!Deadline_exceeded} from
    inside [Engine.run] — this is what turns a livelocked engine run
    into a structured timeout instead of a hang. Install it as the
    engine's sink through [Hwf_sim.Trace.observer]. *)

(** {1 Error taxonomy} *)

type error_class =
  | Transient  (** [Out_of_memory], [Stack_overflow] — machine pressure
                   or a deadline race; retrying may succeed. *)
  | Harness_bug
      (** Any other exception escaping a cell: the cell function was
          expected to return its verdict as a value (counterexamples
          included), so an exception is a bug in the harness itself.
          Reported, never retried, never conflated with a
          counterexample. *)

val classify : exn -> error_class
val pp_error_class : error_class Fmt.t

(** {1 Retry policy} *)

type retry = {
  attempts : int;  (** Max attempts per cell, including the first. *)
  backoff_s : float;  (** Sleep before attempt 2. *)
  backoff_factor : float;  (** Multiplier per further attempt. *)
  max_backoff_s : float;  (** Backoff ceiling. *)
  retry_timeouts : bool;
      (** Whether a [Deadline_exceeded] cell is retried (with the
          attempt number passed to the deadline builder, so the caller
          can demote the budget). *)
}

val default_retry : retry
(** 3 attempts, 50 ms base backoff, x8 factor, 2 s ceiling, timeouts
    retried. *)

val no_retry : retry
(** 1 attempt. *)

(** {1 Cell outcomes} *)

type 'a outcome =
  | Ok_cell of 'a  (** The cell's verdict (counterexamples included). *)
  | Timed_out of string  (** Exceeded its deadline on every attempt. *)
  | Errored of error_class * string
      (** An exception escaped the cell function on its last attempt. *)
  | Skipped of string
      (** Never evaluated: interrupt or stop requested first. *)

type 'a cell = {
  outcome : 'a outcome;
  attempts : int;  (** Attempts actually made (0 when skipped). *)
}

val cell_value : 'a cell -> 'a option

val run_cell :
  ?retry:retry ->
  ?deadline_for:(attempt:int -> deadline) ->
  ?sleep:(float -> unit) ->
  (deadline -> 'a) ->
  'a cell
(** [run_cell f] evaluates [f deadline] under the retry policy
    (default {!no_retry}). [deadline_for] builds a fresh deadline per
    attempt (default: {!no_deadline}); attempts are numbered from 1, so
    a builder can demote the budget for [attempt > 1]. [sleep] is the
    backoff sleep (default [Unix.sleepf]; injectable for tests).
    Exceptions never escape: they are classified and folded into the
    cell outcome. *)

(** {1 Coverage accounting} *)

type coverage = {
  cells_total : int;
  cells_done : int;  (** Cells with an [Ok_cell] outcome. *)
  timeouts : int;
  errors : int;
  skipped : int;
  retries : int;  (** Extra attempts across all cells. *)
  degraded : int;  (** Cells that only succeeded after a retry. *)
  interrupted : bool;  (** True if any cell was skipped by the flag. *)
}

val full_coverage : int -> coverage
(** [cells_total = cells_done = n], everything else zero. *)

val coverage_of_cells : 'a cell array -> coverage
val coverage_union : coverage -> coverage -> coverage
val complete : coverage -> bool
(** All cells done, nothing skipped, timed out or errored. *)

val pp_coverage : coverage Fmt.t
(** E.g. ["37/40 cells (2 timeout, 1 error; 3 retries, 1 degraded)"].
    Prints ["complete"] shorthand only as ["n/n cells"]. *)

val coverage_rows : prefix:string -> coverage -> (string * int) list
(** Harness rows for [Hwf_obs.Metrics.with_harness] / JSONL export:
    [<prefix>.cells_total], [<prefix>.cells_done], [<prefix>.timeouts],
    [<prefix>.errors], [<prefix>.skipped], [<prefix>.retries],
    [<prefix>.degraded], [<prefix>.interrupted]. *)

(** {1 Interrupts} *)

val install_interrupt_handlers : unit -> unit
(** Install SIGINT/SIGTERM handlers that set the cooperative interrupt
    flag. A second signal exits immediately (code 130). Idempotent.
    No-op on platforms without these signals. *)

val interrupted : unit -> bool

val request_interrupt : unit -> unit
(** Set the flag programmatically (tests and embedders). *)

val reset_interrupt : unit -> unit
(** Clear the flag (tests). *)

(** {1 Resilient map} *)

val map :
  ?jobs:int ->
  ?grain:int ->
  ?stats:Hwf_par.Pool.stats ->
  ?retry:retry ->
  ?deadline_for:(attempt:int -> deadline) ->
  ?sleep:(float -> unit) ->
  ?should_stop:(unit -> bool) ->
  ?skip:(int -> 'b cell option) ->
  (deadline -> 'a -> 'b) ->
  'a array ->
  'b cell array
(** {!Hwf_par.Pool.map} with per-cell fault containment: slot [i] is
    [run_cell (fun d -> f d a.(i))] — order-preserving and
    deterministic in the {!Hwf_par.Pool.map} sense, except that
    timeouts and transient errors depend on the machine. [skip i]
    (resume support) supplies a pre-recorded cell instead of
    evaluating; [should_stop] (polled before each cell, ORed with the
    global interrupt flag) turns the remaining cells into [Skipped].
    No exception ever propagates into the pool, so one bad cell cannot
    poison the others. *)

(** {1 Exit codes} *)

val exit_ok : int  (** 0 — clean pass, full coverage. *)

val exit_counterexample : int
(** 1 — a counterexample / certification failure / lint error: the
    {e subject} failed. *)

val exit_harness : int
(** 2 — a harness error: timeout, interrupt, incomplete coverage, bad
    input. The campaign, not the subject, failed. *)
