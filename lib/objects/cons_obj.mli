(** Hardware [C]-consensus objects.

    The base objects of the paper's multiprocessor results: an object
    with consensus number [C] solves consensus for at most [C] processes.
    Following the lower-bound model (Sec. 4.1), an invocation beyond the
    [C]-th returns no useful information, modelled as [None] (the paper's
    ⊥). The upper-bound algorithm (Fig. 7) keeps within the budget by
    mediating access through ports; the lower-bound adversary
    deliberately exhausts it.

    A [propose] is a single atomic statement. *)

type 'a t

val make : ?consensus_number:int -> string -> 'a t
(** [make name] creates an undecided object. [consensus_number] defaults
    to [max_int] (an object of infinite consensus number, e.g. C&S). *)

val named : ?consensus_number:int -> Hwf_sim.Shared.Name.t -> 'a t
(** {!make} with a name rendered on first use ({!Hwf_sim.Shared.Name}). *)

val consensus_number : 'a t -> int

val propose : 'a t -> 'a -> 'a option
(** [propose t v] decides [v] if the object is undecided, and returns the
    decided value — or [None] if this is invocation number [C+1] or
    later. One atomic statement. *)

val read : 'a t -> 'a option
(** [read t] returns the decided value without counting against the
    invocation budget, or [None] if undecided. One atomic statement.
    (Used where the paper reads a consensus object, e.g. Fig. 5 line 17:
    a read is "implemented by reading one shared variable".) *)

val invocations : 'a t -> int
(** Harness inspection: number of [propose]s so far. Not a statement. *)

val peek : 'a t -> 'a option
(** Harness inspection of the decided value. Not a statement. *)

val exhausted : 'a t -> bool
(** Harness inspection: [invocations t > consensus_number t]. *)
