(** Wait-free linearizable data structures via the universal construction.

    These are the deliverables of universality (Theorem 4 applied through
    {!Universal}): counters, queues, stacks and registers shared by any
    number of processes, parameterized by the consensus factory — Fig. 3
    consensus on a uniprocessor, Fig. 7 consensus on [P] processors from
    [P]-consensus objects, or hardware consensus as a baseline. *)

val uni_factory : unit -> Hwf_sim.Shared.Name.t -> pid:int -> 'v -> 'v
(** Consensus cells from the Fig. 3 read/write algorithm — correct on a
    hybrid-scheduled uniprocessor with [Q >= 8·(cells touched per op)]
    headroom. *)

val multi_factory :
  config:Hwf_sim.Config.t ->
  consensus_number:int ->
  unit ->
  Hwf_sim.Shared.Name.t ->
  pid:int ->
  'v ->
  'v
(** Consensus cells from the Fig. 7 algorithm over [C]-consensus
    objects. *)

val hw_factory : unit -> Hwf_sim.Shared.Name.t -> pid:int -> 'v -> 'v
(** Consensus cells from hardware consensus objects of infinite consensus
    number (baseline / oracle). *)

(** {1 Counter} *)

type counter

val counter :
  name:string -> n:int -> factory:(int * int * [ `Incr | `Get ]) Universal.factory -> counter

val incr : counter -> pid:int -> int
(** Increments; returns the post-increment value. *)

val get : counter -> pid:int -> int

(** {1 FIFO queue} *)

type 'a queue

val queue :
  name:string ->
  n:int ->
  factory:(int * int * [ `Enq of 'a | `Deq ]) Universal.factory ->
  'a queue

val enqueue : 'a queue -> pid:int -> 'a -> unit
val dequeue : 'a queue -> pid:int -> 'a option

(** {1 LIFO stack} *)

type 'a stack

val stack :
  name:string ->
  n:int ->
  factory:(int * int * [ `Push of 'a | `Pop ]) Universal.factory ->
  'a stack

val push : 'a stack -> pid:int -> 'a -> unit
val pop : 'a stack -> pid:int -> 'a option

(** {1 Atomic snapshot} *)

type 'a snapshot

val snapshot :
  name:string ->
  n:int ->
  segments:int ->
  init:'a ->
  factory:(int * int * [ `Update of int * 'a | `Scan ]) Universal.factory ->
  'a snapshot
(** A single-writer-per-segment atomic snapshot object: [segments] cells,
    [update] one, [scan] all atomically — the classic primitive, here
    simply as another sequential object under the universal
    construction. *)

val update : 'a snapshot -> pid:int -> segment:int -> 'a -> unit
val scan : 'a snapshot -> pid:int -> 'a array

(** {1 Read/write register} *)

type 'a register

val register :
  name:string ->
  n:int ->
  init:'a ->
  factory:(int * int * [ `Set of 'a | `Read ]) Universal.factory ->
  'a register

val set : 'a register -> pid:int -> 'a -> unit
val read : 'a register -> pid:int -> 'a
