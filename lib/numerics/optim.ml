let invphi = (sqrt 5. -. 1.) /. 2.

let golden_section_min ?(tol = 1e-8) ?(max_iter = 200) f a b =
  let a = ref a and b = ref b in
  let c = ref (!b -. (invphi *. (!b -. !a))) in
  let d = ref (!a +. (invphi *. (!b -. !a))) in
  let fc = ref (f !c) and fd = ref (f !d) in
  let iter = ref 0 in
  while !b -. !a > tol && !iter < max_iter do
    incr iter;
    if !fc < !fd then begin
      b := !d;
      d := !c;
      fd := !fc;
      c := !b -. (invphi *. (!b -. !a));
      fc := f !c
    end
    else begin
      a := !c;
      c := !d;
      fc := !fd;
      d := !a +. (invphi *. (!b -. !a));
      fd := f !d
    end
  done;
  let x = 0.5 *. (!a +. !b) in
  (x, f x)

let brent_min ?(tol = 1e-8) ?(max_iter = 200) f a b =
  (* Brent's minimisation, after Numerical Recipes. *)
  let cgold = 0.3819660 in
  let a = ref (Float.min a b) and b = ref (Float.max a b) in
  let x = ref (!a +. (cgold *. (!b -. !a))) in
  let w = ref !x and v = ref !x in
  let fx = ref (f !x) in
  let fw = ref !fx and fv = ref !fx in
  let d = ref 0. and e = ref 0. in
  let result = ref None in
  let iter = ref 0 in
  while !result = None && !iter < max_iter do
    incr iter;
    let xm = 0.5 *. (!a +. !b) in
    let tol1 = (tol *. Float.abs !x) +. 1e-12 in
    let tol2 = 2. *. tol1 in
    if Float.abs (!x -. xm) <= tol2 -. (0.5 *. (!b -. !a)) then
      result := Some (!x, !fx)
    else begin
      let use_golden = ref true in
      if Float.abs !e > tol1 then begin
        let r = (!x -. !w) *. (!fx -. !fv) in
        let q = (!x -. !v) *. (!fx -. !fw) in
        let p = ((!x -. !v) *. q) -. ((!x -. !w) *. r) in
        let q = 2. *. (q -. r) in
        let p = if q > 0. then -.p else p in
        let q = Float.abs q in
        let etemp = !e in
        e := !d;
        if
          Float.abs p < Float.abs (0.5 *. q *. etemp)
          && p > q *. (!a -. !x)
          && p < q *. (!b -. !x)
        then begin
          d := p /. q;
          let u = !x +. !d in
          if u -. !a < tol2 || !b -. u < tol2 then
            d := if xm -. !x >= 0. then tol1 else -.tol1;
          use_golden := false
        end
      end;
      if !use_golden then begin
        e := (if !x >= xm then !a -. !x else !b -. !x);
        d := cgold *. !e
      end;
      let u =
        if Float.abs !d >= tol1 then !x +. !d
        else !x +. (if !d >= 0. then tol1 else -.tol1)
      in
      let fu = f u in
      if fu <= !fx then begin
        if u >= !x then a := !x else b := !x;
        v := !w;
        fv := !fw;
        w := !x;
        fw := !fx;
        x := u;
        fx := fu
      end
      else begin
        if u < !x then a := u else b := u;
        if fu <= !fw || !w = !x then begin
          v := !w;
          fv := !fw;
          w := u;
          fw := fu
        end
        else if fu <= !fv || !v = !x || !v = !w then begin
          v := u;
          fv := fu
        end
      end
    end
  done;
  match !result with Some r -> r | None -> (!x, !fx)

let grid_min_1d f a b n =
  if n < 2 then invalid_arg "Optim.grid_min_1d: need n >= 2";
  let best_x = ref a and best_f = ref (f a) in
  for i = 1 to n - 1 do
    let x = a +. ((b -. a) *. float_of_int i /. float_of_int (n - 1)) in
    let fx = f x in
    if fx < !best_f then begin
      best_x := x;
      best_f := fx
    end
  done;
  (!best_x, !best_f)

module Box = struct
  type t = { lo : Vec.t; hi : Vec.t }

  let make lo hi =
    if Vec.dim lo <> Vec.dim hi then invalid_arg "Box.make: dimension mismatch";
    if not (Vec.le lo hi) then invalid_arg "Box.make: lo > hi";
    { lo = Vec.copy lo; hi = Vec.copy hi }

  let of_intervals ivs =
    let lo = Array.of_list (List.map Interval.lo ivs) in
    let hi = Array.of_list (List.map Interval.hi ivs) in
    make lo hi

  let dim b = Vec.dim b.lo

  let mem x b = Vec.le b.lo x && Vec.le x b.hi

  let midpoint b = Vec.lerp b.lo b.hi 0.5

  let axis_vertices lo hi = if lo = hi then [| lo |] else [| lo; hi |]

  let axis_grid k lo hi =
    if k < 1 then invalid_arg "Box.sample_grid: need k >= 1";
    if lo = hi || k = 1 then
      [| Interval.clamp (Interval.make lo hi) (0.5 *. (lo +. hi)) |]
    else Vec.linspace lo hi k

  (* all points of the product of the axes, last axis fastest *)
  let product axes =
    let n = Array.length axes in
    let rec build i acc =
      if i = n then [ Array.of_list (List.rev acc) ]
      else
        Array.to_list axes.(i)
        |> List.concat_map (fun v -> build (i + 1) (v :: acc))
    in
    build 0 []

  let vertices b =
    product (Array.init (dim b) (fun i -> axis_vertices b.lo.(i) b.hi.(i)))

  let sample_grid b k =
    if k < 1 then invalid_arg "Box.sample_grid: need k >= 1";
    product (Array.init (dim b) (fun i -> axis_grid k b.lo.(i) b.hi.(i)))

  let sample_uniform rng b =
    Array.init (dim b) (fun i -> Rng.float_range rng b.lo.(i) b.hi.(i))

  let clamp b x = Vec.clamp ~lo:b.lo ~hi:b.hi x
end

(* shrinking coordinate descent inside a box, starting from x0 *)
let coordinate_refine f (box : Box.t) x0 iters =
  let n = Box.dim box in
  let x = ref (Vec.copy x0) in
  let fx = ref (f !x) in
  let radius = ref 0.25 in
  for _ = 1 to iters do
    for i = 0 to n - 1 do
      let span = box.hi.(i) -. box.lo.(i) in
      if span > 0. then begin
        let step = !radius *. span in
        let try_at v =
          if v >= box.lo.(i) -. 1e-15 && v <= box.hi.(i) +. 1e-15 then begin
            let cand = Vec.copy !x in
            cand.(i) <- Float.min box.hi.(i) (Float.max box.lo.(i) v);
            let fc = f cand in
            if fc < !fx then begin
              x := cand;
              fx := fc
            end
          end
        in
        try_at (!x.(i) +. step);
        try_at (!x.(i) -. step)
      end
    done;
    radius := !radius *. 0.7
  done;
  (!x, !fx)

let minimize_box ?(grid = 3) ?(refine_iters = 40) f box =
  let candidates = Box.vertices box @ Box.sample_grid box grid in
  let best =
    List.fold_left
      (fun acc x ->
        let fx = f x in
        match acc with
        | Some (_, fb) when fb <= fx -> acc
        | _ -> Some (x, fx))
      None candidates
  in
  match best with
  | None -> invalid_arg "Optim.minimize_box: empty box"
  | Some (x, _) -> coordinate_refine f box x refine_iters

let maximize_box ?grid ?refine_iters f box =
  let x, fneg = minimize_box ?grid ?refine_iters (fun v -> -.f v) box in
  (x, -.fneg)

let argmax_vertices f box =
  let best =
    List.fold_left
      (fun acc x ->
        let fx = f x in
        match acc with
        | Some (_, fb) when fb >= fx -> acc
        | _ -> Some (x, fx))
      None (Box.vertices box)
  in
  match best with
  | None -> invalid_arg "Optim.argmax_vertices: empty box"
  | Some r -> r

let nelder_mead ?(tol = 1e-9) ?(max_iter = 2000) ?(scale = 0.1) f x0 =
  let n = Vec.dim x0 in
  (* initial simplex: x0 plus perturbations along each axis *)
  let simplex =
    Array.init (n + 1) (fun i ->
        if i = 0 then Vec.copy x0
        else begin
          let v = Vec.copy x0 in
          let delta = if v.(i - 1) = 0. then scale else scale *. Float.abs v.(i - 1) in
          v.(i - 1) <- v.(i - 1) +. delta;
          v
        end)
  in
  let values = Array.map f simplex in
  let order () =
    let idx = Array.init (n + 1) Fun.id in
    Array.sort (fun i j -> compare values.(i) values.(j)) idx;
    let s = Array.map (fun i -> simplex.(i)) idx in
    let v = Array.map (fun i -> values.(i)) idx in
    Array.blit s 0 simplex 0 (n + 1);
    Array.blit v 0 values 0 (n + 1)
  in
  let centroid () =
    let c = Vec.zeros n in
    for i = 0 to n - 1 do
      Vec.axpy_in_place (1. /. float_of_int n) simplex.(i) c
    done;
    c
  in
  let iter = ref 0 in
  order ();
  while !iter < max_iter && values.(n) -. values.(0) > tol do
    incr iter;
    let c = centroid () in
    let worst = simplex.(n) in
    let reflect = Vec.axpy (-1.) worst (Vec.scale 2. c) in
    let fr = f reflect in
    if fr < values.(0) then begin
      (* expansion *)
      let expand = Vec.axpy (-2.) worst (Vec.scale 3. c) in
      let fe = f expand in
      if fe < fr then begin
        simplex.(n) <- expand;
        values.(n) <- fe
      end
      else begin
        simplex.(n) <- reflect;
        values.(n) <- fr
      end
    end
    else if fr < values.(n - 1) then begin
      simplex.(n) <- reflect;
      values.(n) <- fr
    end
    else begin
      (* contraction *)
      let contract = Vec.lerp worst c 0.5 in
      let fc = f contract in
      if fc < values.(n) then begin
        simplex.(n) <- contract;
        values.(n) <- fc
      end
      else
        (* shrink towards the best point *)
        for i = 1 to n do
          simplex.(i) <- Vec.lerp simplex.(0) simplex.(i) 0.5;
          values.(i) <- f simplex.(i)
        done
    end;
    order ()
  done;
  (simplex.(0), values.(0))
