(** Fig. 3: wait-free consensus for hybrid-scheduled uniprocessors from
    reads and writes only (Theorem 1).

    The algorithm copies a value from [P[1]] to [P[2]] to [P[3]]; every
    process returns [P[3]]. It is correct for any number of processes on
    one processor, at any mix of priorities, provided the quantum ensures
    each invocation is quantum-preempted at most once; unrolled, the
    invocation is 8 statements, hence
    [Q >= Bounds.uniprocessor_consensus_quantum = 8] (Theorem 1).

    The object is long-lived in the sense that it can also be read
    (needed by Fig. 5 line 17): a read costs one statement when the
    object is undecided, and re-runs [decide] on the value found in
    [P[1]] otherwise — the paper's suggested implementation. *)

type 'a t

val make : string -> 'a t

val named : Hwf_sim.Shared.Name.t -> 'a t
(** {!make} with a name rendered on first use ({!Hwf_sim.Shared.Name}).
    Its registers are named [name.P[1]] … [name.P[3]]. *)

val name : 'a t -> string

val decide : 'a t -> 'a -> 'a
(** [decide t v] proposes [v] and returns the common decision. Exactly 8
    atomic statements. Must run inside an invocation on the creating
    processor's machine. *)

val read : 'a t -> 'a option
(** [None] while no process has completed line 6 for [P[1]]; otherwise
    the decided value. *)

val peek : 'a t -> 'a option
(** Harness inspection of [P[3]] (the decision slot); not a statement. *)

val statements_per_decide : int
(** = 8, the unrolled statement count used in Theorem 1. *)
