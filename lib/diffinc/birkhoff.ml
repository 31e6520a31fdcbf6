open Umf_numerics
module Obs = Umf_obs.Obs

type result = {
  polygon : Geometry.point list;
  iterations : int;
  escaped : bool;
}

let to_point x = (x.(0), x.(1))

let of_point (px, py) = [| px; py |]

let traj_points traj =
  Array.to_list (Array.map to_point traj.Ode.Traj.states)

let compute ?theta_a ?theta_b ?(dt = 1e-2) ?(settle_time = 200.)
    ?(escape_time = 30.) ?(n_boundary = 200) ?(max_rounds = 50) ?(tol = 1e-6)
    ?(check = false) ?(obs = Obs.off) di ~x_start =
  if di.Di.dim <> 2 then invalid_arg "Birkhoff.compute: system is not 2-D";
  let on = Obs.enabled obs in
  let sp = Obs.span_begin obs "birkhoff.compute" in
  let theta_a =
    match theta_a with Some t -> t | None -> di.Di.theta.Optim.Box.hi
  in
  let theta_b =
    match theta_b with Some t -> t | None -> di.Di.theta.Optim.Box.lo
  in
  let settle theta x0 =
    Ode.integrate_to ~obs
      (fun _t x -> di.Di.drift x theta)
      ~t0:0. ~y0:x0 ~t1:settle_time ~dt
  in
  let run theta x0 horizon =
    Di.integrate_constant ~obs di ~theta ~x0 ~horizon ~dt
  in
  (* seed region: heteroclinic loop between the two extreme dynamics *)
  let x0 = settle theta_a x_start in
  let t1 = run theta_b x0 settle_time in
  let t2 = run theta_a (Ode.Traj.last t1) settle_time in
  let hull =
    ref (Geometry.convex_hull (to_point x0 :: traj_points t1 @ traj_points t2))
  in
  let theta_vertices = Optim.Box.vertices di.Di.theta in
  (* worst outward drift at a boundary point with outward normal nrm *)
  let outward_escape (px, py) (nx, ny) =
    let x = of_point (px, py) in
    List.fold_left
      (fun best theta ->
        let f = di.Di.drift x theta in
        let out = (f.(0) *. nx) +. (f.(1) *. ny) in
        match best with
        | Some (b, _) when b >= out -> best
        | _ -> Some (out, theta))
      None theta_vertices
  in
  let rounds = ref 0 in
  let growing = ref true in
  let outward_left = ref false in
  while !growing && !rounds < max_rounds do
    incr rounds;
    outward_left := false;
    (* test resampled boundary points against their edge normals *)
    let boundary = Geometry.resample_boundary !hull n_boundary in
    let edge_normals = Array.of_list (Geometry.edge_midpoints !hull) in
    let normal_for p =
      (* use the normal of the nearest edge midpoint (the first one on
         a tie, or the last after a NaN distance) *)
      let best = ref (-1) and best_d = ref Float.nan in
      Array.iteri
        (fun k (mid, _) ->
          let d = Geometry.dist p mid in
          if !best < 0 || not (!best_d <= d) then begin
            best := k;
            best_d := d
          end)
        edge_normals;
      if !best < 0 then (0., 0.) else snd edge_normals.(!best)
    in
    (* every escape of the round first, then all of them integrated as
       lockstep lanes (each lane bitwise its scalar run) *)
    let escapes =
      List.filter_map
        (fun p ->
          match outward_escape p (normal_for p) with
          | Some (out, theta) when out > tol -> Some (theta, of_point p)
          | Some _ | None -> None)
        boundary
    in
    if escapes <> [] then begin
      outward_left := true;
      let thetas, x0s = Array.split (Array.of_list escapes) in
      let trajs =
        Di.integrate_constant_batch ~obs di ~thetas ~x0s ~horizon:escape_time
          ~dt
      in
      (* only the current hull vertices matter for the next hull; the
         points go in as the escapes' trajectories, latest escape
         first, then the hull *)
      let before = Geometry.polygon_area !hull in
      let total =
        Array.fold_left
          (fun acc traj -> acc + Ode.Traj.length traj)
          (List.length !hull) trajs
      in
      let xs = Array.make total 0. and ys = Array.make total 0. in
      let k = ref 0 in
      let add (x, y) =
        xs.(!k) <- x;
        ys.(!k) <- y;
        incr k
      in
      for l = Array.length trajs - 1 downto 0 do
        Array.iter (fun x -> add (to_point x)) trajs.(l).Ode.Traj.states
      done;
      List.iter add !hull;
      hull := Geometry.convex_hull_xy xs ys;
      let after = Geometry.polygon_area !hull in
      if check && not (Float.is_finite after) then
        failwith
          (Printf.sprintf
             "Birkhoff.compute: non-finite region area at round %d" !rounds);
      if on then Obs.gauge obs "birkhoff.area" after;
      (* stop growing once escapes no longer enlarge the region: the
         outward drift then only traces chords of a non-convex set
         already inside the hull *)
      if after -. before <= 1e-5 *. Float.max 1e-6 before then
        growing := false
    end
    else growing := false
  done;
  (* dense trajectory points make hulls with tens of thousands of
     vertices; simplify to keep downstream membership tests cheap *)
  let max_vertices = 256 in
  let polygon =
    if List.length !hull > max_vertices then
      Geometry.convex_hull (Geometry.resample_boundary !hull max_vertices)
    else !hull
  in
  let escaped = !outward_left && !rounds >= max_rounds in
  if on then begin
    let area = Geometry.polygon_area polygon in
    Obs.count obs "birkhoff.iterations" !rounds;
    if escaped then Obs.count obs "birkhoff.nonconverged" 1;
    Obs.gauge obs "birkhoff.area" area;
    Obs.span_end
      ~metrics:
        [
          ("rounds", float_of_int !rounds);
          ("area", area);
          ("converged", if escaped then 0. else 1.);
        ]
      obs sp
  end;
  { polygon; iterations = !rounds; escaped }

let contains ?tol r p =
  Geometry.point_in_convex_polygon ?tol p r.polygon

let area r = Geometry.polygon_area r.polygon

let converged r = not r.escaped

let pp_result ppf r =
  Format.fprintf ppf
    "@[birkhoff: value %.6g (area), %d iteration%s, %s, %d vertices@]" (area r)
    r.iterations
    (if r.iterations = 1 then "" else "s")
    (if converged r then "converged" else "NOT converged")
    (List.length r.polygon)

let result_to_string r = Format.asprintf "%a" pp_result r
