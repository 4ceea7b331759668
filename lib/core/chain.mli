(** Long-lived uniprocessor objects from reads and writes: the
    consensus-chain kernel (DESIGN.md, Substitution 2).

    Stands in for the constant-time quantum-based C&S / F&I / counter
    algorithms of Anderson, Jain and Ott (DISC '98) that the paper's
    Figs. 5 and 7 use as subroutines ("Q-C&S", "local-C&S", "local-F&I").
    Operation [k] on the object is decided by a read/write consensus
    object [slot.(k)] (the paper's own Fig. 3 algorithm, so the whole
    construction is reads and writes only); a per-slot state log has a
    unique writer and therefore needs no further synchronization; a
    monotone version hint keeps scans short.

    Correctness contract (validated by model checking in the test
    suite): linearizable for processes of one priority level on one
    processor under hybrid scheduling. Wait-freedom: a process can lose
    a slot only if some other same-level process executed during its
    attempt — on a uniprocessor that requires a preemption — so with a
    quantum at least twice {!statements_per_attempt_hint} an operation
    completes in at most two attempts. Reads are read-only and safe from
    any priority level (they cost O(1 + lag) statements rather than the
    single load of the original AJO read; the lag is measured by the E4
    bench).

    The object is a deterministic state machine ['s] with operations
    ['op] producing results ['r]. *)

type ('s, 'op, 'r) t

val make : name:string -> init:'s -> apply:('s -> 'op -> 's * 'r) -> ('s, 'op, 'r) t
(** [apply] must be a pure function: it is replayed by readers. *)

val named :
  name:Hwf_sim.Shared.Name.t -> init:'s -> apply:('s -> 'op -> 's * 'r) -> ('s, 'op, 'r) t
(** {!make} with a name rendered on first use ({!Hwf_sim.Shared.Name}).
    Its variables are [name.ver], [name.val[k]] and the consensus
    objects [name.slot[k]], [k] counted from 0 as allocated. *)

val invoke : ('s, 'op, 'r) t -> who:int -> 'op -> 'r
(** Applies [op] atomically and returns its result. [who] identifies the
    calling process (any int unique per process). *)

val read : ('s, 'op, 'r) t -> 's
(** Linearizable wait-free read of the current state; never contends. *)

val peek_state : ('s, 'op, 'r) t -> 's
(** Harness inspection of the current abstract state; not a statement. *)

val ops_count : ('s, 'op, 'r) t -> int
(** Harness inspection: operations linearized so far. *)

val val_cell : ('s, 'op, 'r) t -> int -> 's option Hwf_sim.Shared.t
(** Harness inspection: the state register [name.val[k]], allocating it
    (and every earlier one) if needed; not a statement. *)

val slot_cell : ('s, 'op, 'r) t -> int -> (int * int * 'op) Uni_consensus.t
(** Harness inspection: the consensus object [name.slot[k]] deciding
    operation [k], allocated like {!val_cell}; not a statement. *)

val max_attempts : ('s, 'op, 'r) t -> int
(** Harness inspection: the worst number of attempts any single [invoke]
    on this object needed — 1 in preemption-free runs, and at most
    [1 + preemptions] when used by a single priority level. *)

val statements_per_attempt_hint : int
(** A conservative constant bound on the statements of one attempt when
    the version hint is fresh; used to size quanta in experiments. *)
