(* Read-mostly Laser store.

   Readers never take a lock: the whole keyspace lives in one
   immutable [root] value — a persistent map plus a generation number
   — reached through a single [Atomic.get].  Writers (the stream and
   MapReduce feeder pipelines) build the next root off to the side and
   publish it with a compare-and-set; racing writers retry against the
   freshest root, so feeders on different domains never block each
   other and never block a reader.

   Publishing the root as one value is also what makes
   [mapreduce_refresh] atomic: a reader holding the old root sees the
   complete old batch, a reader that loads the new root sees the
   complete new batch, and no interleaving ever exposes the dropped-
   but-not-yet-reloaded state the old mutable Hashtbl had. *)

module Smap = Map.Make (String)

type root = {
  keys : float Smap.t;
  generation : int;
}

type t = {
  root : root Atomic.t;
  reads : int ref Cm_parallel.Per_domain.t;  (* [get] calls, per domain *)
}

let create () =
  {
    root = Atomic.make { keys = Smap.empty; generation = 0 };
    reads = Cm_parallel.Per_domain.create (fun () -> ref 0);
  }

let get t key =
  incr (Cm_parallel.Per_domain.get t.reads);
  Smap.find_opt key (Atomic.get t.root).keys

let size t = Smap.cardinal (Atomic.get t.root).keys
let reads t = Cm_parallel.Per_domain.fold (fun acc n -> acc + !n) 0 t.reads
let generation t = (Atomic.get t.root).generation

(* CAS-retry publish: [update] maps the freshest keyspace to the next
   one.  Lock-free — a writer that loses the race re-derives its batch
   against the winner's root. *)
let rec publish t update =
  let old = Atomic.get t.root in
  let next = { keys = update old.keys; generation = old.generation + 1 } in
  if not (Atomic.compare_and_set t.root old next) then publish t update

let add_all pairs keys = List.fold_left (fun keys (k, v) -> Smap.add k v keys) keys pairs

let put t key v = publish t (Smap.add key v)
let stream_upsert t pairs = if pairs <> [] then publish t (add_all pairs)

let mapreduce_refresh t ~prefix pairs =
  publish t (fun keys ->
      add_all pairs (Smap.filter (fun key _ -> not (String.starts_with ~prefix key)) keys))
