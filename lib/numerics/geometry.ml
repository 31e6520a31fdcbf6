type point = float * float

let[@inline] cross_xy ox oy ax ay bx by =
  ((ax -. ox) *. (by -. oy)) -. ((ay -. oy) *. (bx -. ox))

let cross (ox, oy) (ax, ay) (bx, by) = cross_xy ox oy ax ay bx by

let dist (ax, ay) (bx, by) = Float.hypot (bx -. ax) (by -. ay)

(* (x1, y1) <= (x2, y2) in the order of [compare] on points:
   lexicographic, each coordinate by [Float.compare] (so -0. = 0., and
   NaN equals NaN and sorts first) *)
let[@inline] point_le x1 y1 x2 y2 =
  let c = Float.compare x1 x2 in
  c < 0 || (c = 0 && Float.compare y1 y2 <= 0)

(* Stable merge sort of the points (xs.(k), ys.(k)) carrying their
   input positions ids.(k): insertion-sorted runs of 16, then merge
   passes between the arrays and one scratch copy.  Returns the sorted
   triple (the inputs or the scratch copy). *)
let sort_points xs ys ids =
  let n = Array.length xs in
  let run = 16 in
  let lo = ref 0 in
  while !lo < n do
    let hi = Stdlib.min n (!lo + run) in
    for i = !lo + 1 to hi - 1 do
      let x = xs.(i) and y = ys.(i) and id = ids.(i) in
      let j = ref (i - 1) in
      while !j >= !lo && not (point_le xs.(!j) ys.(!j) x y) do
        xs.(!j + 1) <- xs.(!j);
        ys.(!j + 1) <- ys.(!j);
        ids.(!j + 1) <- ids.(!j);
        decr j
      done;
      xs.(!j + 1) <- x;
      ys.(!j + 1) <- y;
      ids.(!j + 1) <- id
    done;
    lo := hi
  done;
  let src = ref (xs, ys, ids)
  and dst = ref (Array.make n 0., Array.make n 0., Array.make n 0) in
  let width = ref run in
  while !width < n do
    let (sx, sy, si), (dx, dy, di) = (!src, !dst) in
    let lo = ref 0 in
    while !lo < n do
      let mid = Stdlib.min n (!lo + !width) in
      let hi = Stdlib.min n (mid + !width) in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        (* the left run on ties: stability *)
        let from =
          if !j >= hi || (!i < mid && point_le sx.(!i) sy.(!i) sx.(!j) sy.(!j))
          then (
            let f = !i in
            incr i;
            f)
          else (
            let f = !j in
            incr j;
            f)
        in
        dx.(k) <- sx.(from);
        dy.(k) <- sy.(from);
        di.(k) <- si.(from)
      done;
      lo := hi
    done;
    src := (dx, dy, di);
    dst := (sx, sy, si);
    width := 2 * !width
  done;
  !src

(* [List.sort_uniq compare] keeps one point of each class of equal
   points.  Its merge sort splits n points into n/2 and n - n/2 down to
   leaves of 2 or 3, and on a tie keeps the point from the earlier
   half or leaf; so it keeps a class's first point in input order,
   except that a 3-point leaf whose first two points tie keeps the
   second.  [leaf3] marks the first position of every 3-point leaf. *)
let leaf3_starts n =
  let leaf3 = Bytes.make n '\000' in
  let rec leaves off len =
    if len = 3 then Bytes.set leaf3 off '\001'
    else if len > 3 then begin
      let h = len asr 1 in
      leaves off h;
      leaves (off + h) (len - h)
    end
  in
  leaves 0 n;
  leaf3

(* the hull of (xs.(k), ys.(k)) in input order k; sorts the arrays in
   place *)
let hull_in_place xs ys =
  let n = Array.length xs in
  let sx, sy, si = sort_points xs ys (Array.init n Fun.id) in
  (* the distinct points, compacted in place: each run of equal points
     (in input order, the sort being stable) is replaced by the member
     [List.sort_uniq compare] keeps *)
  let leaf3 = leaf3_starts n in
  let m = ref 0 and k = ref 0 in
  while !k < n do
    let e = ref (!k + 1) in
    while
      !e < n
      && Float.compare sx.(!e) sx.(!k) = 0
      && Float.compare sy.(!e) sy.(!k) = 0
    do
      incr e
    done;
    let first = si.(!k) in
    let keep =
      if
        Bytes.get leaf3 first = '\001'
        && !e > !k + 1
        && si.(!k + 1) = first + 1
      then !k + 1
      else !k
    in
    sx.(!m) <- sx.(keep);
    sy.(!m) <- sy.(keep);
    incr m;
    k := !e
  done;
  let m = !m in
  let point k = (sx.(k), sy.(k)) in
  if m <= 2 then List.init m point
  else begin
    (* Andrew's monotone chain.  [half step] runs one chain over the
       sorted points (forward for step 1, backward for step -1) on a
       stack; a non-positive cross product means the top point is not
       a strict left turn and is popped.  Each chain's last point starts
       the other chain, so it is dropped. *)
    let stack = Array.make m 0 in
    let half step =
      let top = ref 0 in
      for k = 0 to m - 1 do
        let p = if step > 0 then k else m - 1 - k in
        while
          !top >= 2
          &&
          let o = stack.(!top - 2) and a = stack.(!top - 1) in
          cross_xy sx.(o) sy.(o) sx.(a) sy.(a) sx.(p) sy.(p) <= 0.
        do
          decr top
        done;
        stack.(!top) <- p;
        incr top
      done;
      List.init (!top - 1) (fun i -> point stack.(i))
    in
    let lower = half 1 in
    lower @ half (-1)
  end

let convex_hull_xy xs ys =
  if Array.length ys <> Array.length xs then
    invalid_arg "Geometry.convex_hull_xy: coordinate arrays differ in length";
  if Array.length xs < 2 then
    List.init (Array.length xs) (fun k -> (xs.(k), ys.(k)))
  else hull_in_place (Array.copy xs) (Array.copy ys)

let convex_hull points =
  match points with
  | [] | [ _ ] -> points
  | _ ->
      let pts = Array.of_list points in
      hull_in_place (Array.map fst pts) (Array.map snd pts)

let polygon_area poly =
  match poly with
  | [] | [ _ ] | [ _; _ ] -> 0.
  | first :: _ ->
      let rec go acc = function
        | (x1, y1) :: ((x2, y2) :: _ as rest) ->
            go (acc +. ((x1 *. y2) -. (x2 *. y1))) rest
        | [ (x1, y1) ] ->
            let x2, y2 = first in
            acc +. ((x1 *. y2) -. (x2 *. y1))
        | [] -> acc
      in
      Float.abs (go 0. poly) /. 2.

let centroid poly =
  match poly with
  | [] -> invalid_arg "Geometry.centroid: empty polygon"
  | _ ->
      let n = float_of_int (List.length poly) in
      let sx = List.fold_left (fun s (x, _) -> s +. x) 0. poly in
      let sy = List.fold_left (fun s (_, y) -> s +. y) 0. poly in
      (sx /. n, sy /. n)

let edges poly =
  match poly with
  | [] | [ _ ] -> []
  | first :: _ ->
      let rec go = function
        | a :: (b :: _ as rest) -> (a, b) :: go rest
        | [ last ] -> [ (last, first) ]
        | [] -> []
      in
      go poly

let point_in_convex_polygon ?(tol = 1e-12) p poly =
  match poly with
  | [] -> false
  | [ q ] -> dist p q <= tol
  | [ a; b ] ->
      (* segment membership: perpendicular distance and projection *)
      let len = dist a b in
      Float.abs (cross a b p) <= tol *. Float.max len 1e-300
      && dist a p +. dist p b <= len +. (2. *. tol)
  | _ ->
      (* [cross a b p / |ab|] is the signed perpendicular distance to
         the edge line, so [tol] is a true distance slack regardless of
         how finely the polygon is subdivided *)
      List.for_all
        (fun (a, b) ->
          let len = dist a b in
          len <= 0. || cross a b p >= -.(tol *. len))
        (edges poly)

let violation_depth p poly =
  match poly with
  | [] -> Float.infinity
  | [ q ] -> dist p q
  | _ ->
      (* max over edges of the outward signed distance; 0 inside *)
      List.fold_left
        (fun worst (a, b) ->
          let len = dist a b in
          if len <= 0. then worst
          else Float.max worst (-.(cross a b p) /. len))
        0. (edges poly)
      |> Float.max 0.

let outward_normal (ax, ay) (bx, by) =
  (* CCW polygon: interior is to the left of each edge, so the outward
     normal is the right-hand normal of the edge direction *)
  let dx = bx -. ax and dy = by -. ay in
  let len = Float.hypot dx dy in
  if len = 0. then (0., 0.) else (dy /. len, -.dx /. len)

let edge_midpoints poly =
  List.map
    (fun ((ax, ay), (bx, by)) ->
      let mid = (0.5 *. (ax +. bx), 0.5 *. (ay +. by)) in
      (mid, outward_normal (ax, ay) (bx, by)))
    (edges poly)

let resample_boundary poly n =
  if n < 1 then invalid_arg "Geometry.resample_boundary: need n >= 1";
  let es = edges poly in
  let perimeter = List.fold_left (fun s (a, b) -> s +. dist a b) 0. es in
  if perimeter = 0. then List.init n (fun _ -> List.hd poly)
  else begin
    let step = perimeter /. float_of_int n in
    let result = ref [] in
    let carried = ref 0. in
    (* walk the boundary emitting a point every [step] of arc length *)
    List.iter
      (fun ((ax, ay), (bx, by)) ->
        let len = dist (ax, ay) (bx, by) in
        if len > 0. then begin
          let pos = ref (step -. !carried) in
          while !pos <= len do
            let s = !pos /. len in
            result := (ax +. (s *. (bx -. ax)), ay +. (s *. (by -. ay))) :: !result;
            pos := !pos +. step
          done;
          carried := len -. (!pos -. step)
        end)
      es;
    let pts = List.rev !result in
    (* rounding can yield n-1 or n+1 points; pad or trim *)
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: tl -> x :: take (k - 1) tl
    in
    let pts = take n pts in
    let missing = n - List.length pts in
    if missing > 0 then pts @ List.init missing (fun _ -> List.hd poly) else pts
  end

let hausdorff a b =
  let directed xs ys =
    List.fold_left
      (fun worst x ->
        let nearest =
          List.fold_left (fun best y -> Float.min best (dist x y)) Float.infinity ys
        in
        Float.max worst nearest)
      0. xs
  in
  match (a, b) with
  | [], [] -> 0.
  | [], _ | _, [] -> Float.infinity
  | _ -> Float.max (directed a b) (directed b a)

let bounding_box = function
  | [] -> invalid_arg "Geometry.bounding_box: empty"
  | (x0, y0) :: rest ->
      List.fold_left
        (fun ((xmin, ymin), (xmax, ymax)) (x, y) ->
          ( (Float.min xmin x, Float.min ymin y),
            (Float.max xmax x, Float.max ymax y) ))
        ((x0, y0), (x0, y0))
        rest
