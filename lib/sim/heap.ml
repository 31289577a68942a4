type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = { mutable data : 'a entry array; mutable len : int }

let create () = { data = [||]; len = 0 }
let is_empty h = h.len = 0

let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow h =
  let cap = Array.length h.data in
  if h.len >= cap then begin
    let new_cap = max 16 (cap * 2) in
    let fresh = Array.make new_cap h.data.(0) in
    Array.blit h.data 0 fresh 0 h.len;
    h.data <- fresh
  end

let push h ~time ~seq payload =
  let entry = { time; seq; payload } in
  if Array.length h.data = 0 then h.data <- Array.make 16 entry else grow h;
  h.data.(h.len) <- entry;
  h.len <- h.len + 1;
  (* Sift up. *)
  let i = ref (h.len - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    less h.data.(!i) h.data.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = h.data.(!i) in
    h.data.(!i) <- h.data.(parent);
    h.data.(parent) <- tmp;
    i := parent
  done

let peek h = if h.len = 0 then None else Some (h.data.(0).time, h.data.(0).seq, h.data.(0).payload)

let pop h =
  if h.len = 0 then None
  else begin
    let top = h.data.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.data.(0) <- h.data.(h.len);
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let left = (2 * !i) + 1 and right = (2 * !i) + 2 in
        let smallest = ref !i in
        if left < h.len && less h.data.(left) h.data.(!smallest) then smallest := left;
        if right < h.len && less h.data.(right) h.data.(!smallest) then smallest := right;
        if !smallest = !i then continue := false
        else begin
          let tmp = h.data.(!i) in
          h.data.(!i) <- h.data.(!smallest);
          h.data.(!smallest) <- tmp;
          i := !smallest
        end
      done
    end;
    Some (top.time, top.seq, top.payload)
  end
