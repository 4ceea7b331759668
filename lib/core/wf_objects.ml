open Hwf_objects

let uni_factory () name =
  let obj = Uni_consensus.named name in
  fun ~pid:_ v -> Uni_consensus.decide obj v

let multi_factory ~config ~consensus_number () name =
  let obj = Multi_consensus.named ~config ~name ~consensus_number () in
  fun ~pid v -> Multi_consensus.decide obj ~pid v

let hw_factory () name =
  let obj = Cons_obj.named name in
  fun ~pid:_ v ->
    match Cons_obj.propose obj v with
    | Some d -> d
    | None -> assert false (* infinite consensus number *)

(* Counter *)

type counter = (int, [ `Incr | `Get ], int) Universal.t

let counter ~name ~n ~factory =
  Universal.make ~name ~n ~init:0
    ~apply:(fun s op ->
      match op with `Incr -> (s + 1, s + 1) | `Get -> (s, s))
    ~factory

let incr t ~pid = Universal.invoke t ~pid `Incr
let get t ~pid = Universal.invoke t ~pid `Get

(* FIFO queue: functional two-list representation. *)

type 'a queue = ('a list * 'a list, [ `Enq of 'a | `Deq ], 'a option) Universal.t

let queue_apply (front, back) op =
  match op with
  | `Enq x -> ((front, x :: back), None)
  | `Deq -> (
    match front with
    | x :: front' -> ((front', back), Some x)
    | [] -> (
      match List.rev back with
      | x :: front' -> ((front', []), Some x)
      | [] -> (([], []), None)))

let queue ~name ~n ~factory = Universal.make ~name ~n ~init:([], []) ~apply:queue_apply ~factory

let enqueue t ~pid x = ignore (Universal.invoke t ~pid (`Enq x))
let dequeue t ~pid = Universal.invoke t ~pid `Deq

(* Stack *)

type 'a stack = ('a list, [ `Push of 'a | `Pop ], 'a option) Universal.t

let stack ~name ~n ~factory =
  Universal.make ~name ~n ~init:[]
    ~apply:(fun s op ->
      match op with
      | `Push x -> (x :: s, None)
      | `Pop -> ( match s with x :: s' -> (s', Some x) | [] -> ([], None)))
    ~factory

let push t ~pid x = ignore (Universal.invoke t ~pid (`Push x))
let pop t ~pid = Universal.invoke t ~pid `Pop

(* Atomic snapshot: state is an immutable array mirror. *)

type 'a snapshot =
  ('a array, [ `Update of int * 'a | `Scan ], 'a array) Universal.t

let snapshot ~name ~n ~segments ~init ~factory =
  Universal.make ~name ~n
    ~init:(Array.make segments init)
    ~apply:(fun s op ->
      match op with
      | `Update (i, v) ->
        let s' = Array.copy s in
        s'.(i) <- v;
        (s', s')
      | `Scan -> (s, s))
    ~factory

let update t ~pid ~segment v = ignore (Universal.invoke t ~pid (`Update (segment, v)))
let scan t ~pid = Universal.invoke t ~pid `Scan

(* Register *)

type 'a register = ('a, [ `Set of 'a | `Read ], 'a) Universal.t

let register ~name ~n ~init ~factory =
  Universal.make ~name ~n ~init
    ~apply:(fun s op -> match op with `Set v -> (v, v) | `Read -> (s, s))
    ~factory

let set t ~pid v = ignore (Universal.invoke t ~pid (`Set v))
let read t ~pid = Universal.invoke t ~pid `Read
