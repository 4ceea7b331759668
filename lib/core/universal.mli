(** Herlihy's universal construction over consensus objects.

    The payoff of the paper's results: once consensus is wait-free
    solvable for any number of processes (Theorems 1 and 4), {e every}
    sequential object has a wait-free linearizable implementation. The
    object is a list of cells, each deciding via a consensus object
    which announced operation comes next; helping (propose the announced
    operation of process [k mod N] at cell [k]) makes every announced
    operation land within [N] cells, giving wait-freedom.

    The consensus objects are supplied by a factory, so the same
    construction runs over Fig. 3 consensus (uniprocessor objects from
    reads and writes), Fig. 7 consensus ([N >> P] processes from
    [P]-consensus objects — the universality claim of Theorem 4), or raw
    hardware consensus (baseline). Each cell's decision is mirrored into
    a one-writer-value cache register so that replaying the list costs
    one read per cell; all writers of a cache write the same decided
    value, so the mirror is race-free by value.

    Memory is unbounded (one cell per operation), as in Herlihy's
    original construction; the paper's Fig. 5 shows the bounded-memory
    specialization for C&S, implemented in {!Hybrid_cas}. *)

type ('s, 'op, 'r) t

type 'v factory = Hwf_sim.Shared.Name.t -> pid:int -> 'v -> 'v
(** [factory name ~pid v] proposes [v] to the consensus object it names
    (created on first use) and returns the decision. The cell's name
    ([name.cell[k]]) is handed over unrendered ({!Hwf_sim.Shared.Name}). See
    {!Wf_objects.uni_factory} and {!Wf_objects.multi_factory}. *)

val make :
  name:string ->
  n:int ->
  init:'s ->
  apply:('s -> 'op -> 's * 'r) ->
  factory:(int * int * 'op) factory ->
  ('s, 'op, 'r) t
(** [n] is the number of processes that may access the object (pids
    [0..n-1]); [apply] must be pure (it is replayed). *)

val invoke : ('s, 'op, 'r) t -> pid:int -> 'op -> 'r
(** Wait-free linearizable operation application. *)

val peek_state : ('s, 'op, 'r) t -> 's
(** Harness inspection: state after all currently visible operations. *)

val ops_count : ('s, 'op, 'r) t -> int
(** Harness inspection: operations visible so far. *)
