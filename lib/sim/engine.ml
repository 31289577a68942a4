(* [None] once fired or cancelled: a dead handle keeps nothing its
   closure captured reachable, even while the caller or a stale heap
   slot still holds the handle. *)
type handle = { mutable hf : (unit -> unit) option }

type t = {
  queue : handle Heap.t;
  mutable clock : float;
  mutable next_seq : int;
  mutable live : int;
  mutable processed : int;
  random : Rng.t;
}

let create ?(seed = 42L) () =
  {
    queue = Heap.create ();
    clock = 0.0;
    next_seq = 0;
    live = 0;
    processed = 0;
    random = Rng.create seed;
  }

let now t = t.clock
let rng t = t.random
let events_processed t = t.processed

let at t ~time f =
  let time = Float.max time t.clock in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.live <- t.live + 1;
  let h = { hf = Some f } in
  Heap.push t.queue ~time ~seq h;
  h

let schedule t ~delay f = at t ~time:(t.clock +. Float.max 0.0 delay) f

let cancel t handle =
  (* Per-handle liveness: cancelling a fired or already-cancelled
     event is a no-op, and nothing is leaked. *)
  if Option.is_some handle.hf then begin
    handle.hf <- None;
    t.live <- t.live - 1
  end

let pending t = t.live

(* Pops the next live entry due at or before [limit] and retires its
   handle; dead entries (cancelled handles still in the heap) are
   discarded on the way. *)
let rec next_due t ~limit =
  match Heap.peek t.queue with
  | Some (time, _, h) when time <= limit -> (
      ignore (Heap.pop t.queue);
      match h.hf with
      | Some f ->
          h.hf <- None;
          Some (time, f)
      | None -> next_due t ~limit)
  | _ -> None

let fire t time f =
  t.clock <- time;
  t.live <- t.live - 1;
  t.processed <- t.processed + 1;
  f ()

let step t =
  match next_due t ~limit:infinity with
  | None -> false
  | Some (time, f) ->
      fire t time f;
      true

let run ?(until = infinity) t =
  let rec loop () =
    match next_due t ~limit:until with
    | None -> ()
    | Some (time, f) ->
        fire t time f;
        loop ()
  in
  loop ()

let run_for t d =
  let target = t.clock +. d in
  run ~until:target t;
  t.clock <- Float.max t.clock target
