(** Ready-made experiment scenarios.

    Each builder packages a machine shape, process programs and a
    correctness verdict into an {!Hwf_adversary.Explore.scenario}, so the
    same workload can be model-checked, random-tested, probed for
    bivalence or run once under a chosen policy. These are the workloads
    behind experiments E1–E12 (DESIGN.md). *)

open Hwf_adversary

(** {1 Consensus scenarios} *)

type consensus_impl =
  | Fig3  (** Uniprocessor read/write consensus (Theorem 1). *)
  | Fig7 of { consensus_number : int }  (** Multiprocessor (Theorem 4). *)
  | Fig9 of { consensus_number : int }  (** Fair-scheduling variant (Sec. 5). *)

type consensus_built = {
  scenario : Explore.scenario;
  last_outputs : unit -> int option array;
      (** Per-pid decisions of the most recent instance. *)
  last_decision : unit -> int option;
      (** The common decision of the most recent instance, if all
          finished processes agreed; [None] otherwise. For
          {!Hwf_adversary.Bivalence.probe}. *)
}

val consensus :
  name:string -> impl:consensus_impl -> quantum:int -> layout:Layout.t -> consensus_built
(** Every process proposes [100 + pid] once; the verdict demands that all
    processes finish, agree, and decide a proposed value (and, for Fig7,
    that no [C]-consensus object was exhausted — which the Theorem 4
    quantum guarantees). *)

(** {1 One-shot multiprocessor consensus run with full statistics} *)

type mc_summary = {
  finished : bool;
  agreed : bool;
  valid : bool;  (** Decision is one of the proposed inputs. *)
  exhausted : int;  (** Proposals that hit an exhausted object. *)
  access_failures : (int * int) list;
  af_same : (int * int) list;  (** Same-priority access failures. *)
  af_diff : (int * int) list;  (** Different-priority access failures. *)
  af_same_events : int;
      (** Total same-priority AF observations (every event, not just
          distinct sites) — reported against the Lemma 3 envelope. *)
  af_diff_events : int;  (** Total different-priority AF observations. *)
  deciding_level : int option;
  levels : int;  (** The instance's [L]. *)
  statements : int;  (** Total statements of the run. *)
  max_own_steps : int;  (** Worst per-process statement count. *)
  well_formed : bool;
  trace : Hwf_sim.Trace.t;  (** The full history, for structured export. *)
}

val run_multi :
  ?step_limit:int ->
  ?sink:Hwf_sim.Trace.sink ->
  quantum:int ->
  consensus_number:int ->
  layout:Layout.t ->
  policy:Hwf_sim.Policy.t ->
  unit ->
  mc_summary
(** One Fig. 7 consensus execution under [policy], with the measurements
    used by experiments E1 and E5–E7. [sink] is passed through to
    {!Hwf_sim.Engine.run} (live metrics collection). *)

val adversarial_policies :
  seeds:int list -> var_prefix:string -> (unit -> Hwf_sim.Policy.t) list
(** The adversary battery shared by experiments E1 and E6: the
    lower-bound staggering schedule, seeded random schedules, rmw-
    triggered exhaustion pressure against variables under [var_prefix],
    and a stagger/random mix. Each element builds a fresh policy. *)

val violation : mc_summary -> bool
(** True when the run violated its contract: not finished, disagreement,
    invalid value, or an exhausted [C]-consensus object. *)

(** {1 C&S linearizability scenarios (Theorem 2 / E4)} *)

type cas_op = Cas of int * int | Rd

val pp_cas_op : cas_op Fmt.t

val cas_spec : (cas_op, [ `Bool of bool | `Val of int ]) Hwf_check.Lincheck.spec
(** The sequential C&S specification shared by the scenario verdicts.
    Exported so fault-injection campaigns can re-check histories of
    partially crashed runs with
    {!Hwf_check.Lincheck.check_with_pending}. *)

val random_script : seed:int -> n:int -> ops_per:int -> cas_op list list
(** A deterministic mixed CAS/read workload, one op list per pid. *)

val hybrid_cas :
  name:string -> quantum:int -> layout:Layout.t -> script:cas_op list list ->
  Explore.scenario
(** Fig. 5 object exercised by [script]; verdict = all finished and the
    recorded history is linearizable against the sequential C&S spec.
    The layout must be uniprocessor. *)

type cas_summary = {
  cas_finished : bool;
  linearizable : bool;
  cas_stats : Hwf_core.Hybrid_cas.stats;
      (** The Fig. 5 access-failure tap, for measured-vs-Lemma-2
          reporting. *)
  cas_well_formed : bool;
  cas_trace : Hwf_sim.Trace.t;
}

val run_cas :
  ?step_limit:int ->
  ?sink:Hwf_sim.Trace.sink ->
  quantum:int ->
  layout:Layout.t ->
  script:cas_op list list ->
  policy:Hwf_sim.Policy.t ->
  unit ->
  cas_summary
(** One Fig. 5 C&S/read execution under [policy] — the one-shot
    counterpart of {!hybrid_cas} that keeps the object visible so its
    {!Hwf_core.Hybrid_cas.stats} can be reported ([hybridsim stats]).
    The layout must be uniprocessor. *)

val q_cas :
  name:string -> quantum:int -> n:int -> script:cas_op list list -> Explore.scenario
(** Same verdict for the {!Hwf_core.Q_cas} object (single priority level,
    its contract). *)

(** {1 Universal-construction scenarios (E10)} *)

val universal_queue :
  name:string ->
  quantum:int ->
  consensus_number:int ->
  layout:Layout.t ->
  ops_per:int ->
  Explore.scenario
(** Every process enqueues [ops_per] stamped values then dequeues
    [ops_per] times on a queue built over Fig. 7 consensus; verdict =
    linearizable FIFO behaviour. *)

val universal_counter_uni :
  name:string -> quantum:int -> pris:int list -> Explore.scenario
(** Counter over Fig. 3 consensus on a hybrid uniprocessor: every process
    increments once; verdict = final count equals N and all increment
    results are distinct. *)
