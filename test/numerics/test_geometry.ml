open Umf_numerics

let check_close tol msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let square = [ (0., 0.); (1., 0.); (1., 1.); (0., 1.) ]

let test_cross () =
  Alcotest.(check bool) "left turn positive" true
    (Geometry.cross (0., 0.) (1., 0.) (1., 1.) > 0.);
  Alcotest.(check bool) "right turn negative" true
    (Geometry.cross (0., 0.) (1., 0.) (1., -1.) < 0.);
  check_close 1e-12 "collinear" 0. (Geometry.cross (0., 0.) (1., 1.) (2., 2.))

let test_hull_square () =
  let pts = (0.5, 0.5) :: (0.2, 0.7) :: square in
  let hull = Geometry.convex_hull pts in
  Alcotest.(check int) "4 hull points" 4 (List.length hull);
  List.iter
    (fun p ->
      Alcotest.(check bool) "hull point is a corner" true (List.mem p square))
    hull

let test_hull_ccw () =
  let hull = Geometry.convex_hull square in
  (* shoelace signed area positive iff CCW *)
  let signed =
    List.fold_left
      (fun acc ((x1, y1), (x2, y2)) -> acc +. ((x1 *. y2) -. (x2 *. y1)))
      0. (Geometry.edges hull)
  in
  Alcotest.(check bool) "counter-clockwise" true (signed > 0.)

let test_hull_collinear () =
  let hull = Geometry.convex_hull [ (0., 0.); (1., 0.); (2., 0.); (3., 0.) ] in
  Alcotest.(check int) "collinear collapses to 2" 2 (List.length hull)

let test_hull_degenerate () =
  Alcotest.(check int) "empty" 0 (List.length (Geometry.convex_hull []));
  Alcotest.(check int) "single" 1 (List.length (Geometry.convex_hull [ (1., 1.) ]));
  Alcotest.(check int) "duplicates collapse" 1
    (List.length (Geometry.convex_hull [ (1., 1.); (1., 1.) ]))

let test_area () =
  check_close 1e-12 "unit square" 1. (Geometry.polygon_area square);
  check_close 1e-12 "triangle" 0.5
    (Geometry.polygon_area [ (0., 0.); (1., 0.); (0., 1.) ]);
  check_close 1e-12 "degenerate" 0. (Geometry.polygon_area [ (0., 0.); (1., 0.) ])

let test_point_in_polygon () =
  Alcotest.(check bool) "inside" true
    (Geometry.point_in_convex_polygon (0.5, 0.5) square);
  Alcotest.(check bool) "outside" false
    (Geometry.point_in_convex_polygon (1.5, 0.5) square);
  Alcotest.(check bool) "boundary" true
    (Geometry.point_in_convex_polygon (1., 0.5) square);
  Alcotest.(check bool) "corner" true
    (Geometry.point_in_convex_polygon (0., 0.) square)

let test_outward_normal () =
  (* bottom edge of CCW square: outward normal points down *)
  let nx, ny = Geometry.outward_normal (0., 0.) (1., 0.) in
  check_close 1e-12 "nx" 0. nx;
  check_close 1e-12 "ny" (-1.) ny

let test_edge_midpoints () =
  let mids = Geometry.edge_midpoints square in
  Alcotest.(check int) "4 edges" 4 (List.length mids);
  List.iter
    (fun ((mx, my), (nx, ny)) ->
      (* stepping outward along the normal leaves the square *)
      let out = (mx +. (0.1 *. nx), my +. (0.1 *. ny)) in
      Alcotest.(check bool) "normal points outward" false
        (Geometry.point_in_convex_polygon ~tol:1e-9 out square))
    mids

let test_resample () =
  let pts = Geometry.resample_boundary square 8 in
  Alcotest.(check int) "8 points" 8 (List.length pts);
  List.iter
    (fun p ->
      Alcotest.(check bool) "on boundary" true
        (Geometry.point_in_convex_polygon ~tol:1e-9 p square))
    pts

let test_hausdorff () =
  check_close 1e-12 "identical sets" 0. (Geometry.hausdorff square square);
  let shifted = List.map (fun (x, y) -> (x +. 1., y)) square in
  check_close 1e-12 "shifted square" 1. (Geometry.hausdorff square shifted)

let test_bounding_box () =
  let (xmin, ymin), (xmax, ymax) =
    Geometry.bounding_box [ (1., 2.); (-1., 5.); (3., 0.) ]
  in
  check_close 1e-12 "xmin" (-1.) xmin;
  check_close 1e-12 "ymin" 0. ymin;
  check_close 1e-12 "xmax" 3. xmax;
  check_close 1e-12 "ymax" 5. ymax

let test_centroid () =
  let cx, cy = Geometry.centroid square in
  check_close 1e-12 "cx" 0.5 cx;
  check_close 1e-12 "cy" 0.5 cy

let random_points_gen =
  QCheck.Gen.(
    list_size (int_range 3 30)
      (pair (float_range (-10.) 10.) (float_range (-10.) 10.)))

let prop_hull_contains_all =
  QCheck.Test.make ~name:"hull contains all input points" ~count:200
    (QCheck.make random_points_gen) (fun pts ->
      let hull = Geometry.convex_hull pts in
      List.length hull < 3
      || List.for_all
           (fun p -> Geometry.point_in_convex_polygon ~tol:1e-6 p hull)
           pts)

let prop_hull_idempotent =
  QCheck.Test.make ~name:"hull is idempotent" ~count:200
    (QCheck.make random_points_gen) (fun pts ->
      let h1 = Geometry.convex_hull pts in
      let h2 = Geometry.convex_hull h1 in
      List.sort compare h1 = List.sort compare h2)

(* The list implementation [Geometry.convex_hull] replaced (a
   polymorphic [List.sort_uniq compare] and a list monotone chain),
   kept verbatim as the oracle for its output, tie rule included. *)
let reference_hull points =
  let cross (ox, oy) (ax, ay) (bx, by) =
    ((ax -. ox) *. (by -. oy)) -. ((ay -. oy) *. (bx -. ox))
  in
  let pts = List.sort_uniq compare points in
  match pts with
  | [] | [ _ ] | [ _; _ ] -> pts
  | _ ->
      let half input =
        List.fold_left
          (fun acc p ->
            let rec pop = function
              | a :: b :: rest when cross b a p <= 0. -> pop (b :: rest)
              | l -> l
            in
            p :: pop acc)
          [] input
      in
      let lower = half pts in
      let upper = half (List.rev pts) in
      let strip = function [] -> [] | _ :: tl -> tl in
      let hull = List.rev (strip lower) @ List.rev (strip upper) in
      if hull = [] then pts else hull

(* lists rich in ties: repeated points, signed-zero twins (equal under
   [compare], different bits), collinear runs and NaN coordinates *)
let tricky_points_gen =
  let open QCheck.Gen in
  let coord =
    frequency
      [
        (4, oneofl [ 0.; -0.; 1.; -1.; 0.5 ]);
        (3, map float_of_int (int_range (-3) 3));
        (2, float_range (-2.) 2.);
        (1, return Float.nan);
      ]
  in
  let point = pair coord coord in
  let piece =
    frequency
      [
        (4, map (fun p -> [ p ]) point);
        (2, map (fun p -> [ p; p; p ]) point);
        ( 3,
          map2
            (fun y zx -> [ (zx, y); (-.zx, y); (y, zx); (y, -.zx) ])
            coord (oneofl [ 0.; -0. ]) );
        ( 2,
          map3
            (fun (x, y) (dx, dy) n ->
              List.init n (fun k ->
                  (x +. (float_of_int k *. dx), y +. (float_of_int k *. dy))))
            point point (int_range 2 6) );
      ]
  in
  list_size (int_range 0 60) piece >>= fun ps -> shuffle_l (List.concat ps)

let print_points pts =
  String.concat "; "
    (List.map (fun (x, y) -> Printf.sprintf "(%h, %h)" x y) pts)

let same_bits a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ax, ay) (bx, by) ->
         Int64.equal (Int64.bits_of_float ax) (Int64.bits_of_float bx)
         && Int64.equal (Int64.bits_of_float ay) (Int64.bits_of_float by))
       a b

let prop_hull_matches_reference =
  QCheck.Test.make ~name:"hull bitwise equal to the list reference" ~count:500
    (QCheck.make ~print:print_points tricky_points_gen) (fun pts ->
      let reference = reference_hull pts in
      let xs = Array.of_list (List.map fst pts)
      and ys = Array.of_list (List.map snd pts) in
      same_bits reference (Geometry.convex_hull pts)
      && same_bits reference (Geometry.convex_hull_xy xs ys))

let suites =
  [
    ( "geometry",
      [
        Alcotest.test_case "cross product" `Quick test_cross;
        Alcotest.test_case "hull of square" `Quick test_hull_square;
        Alcotest.test_case "hull orientation" `Quick test_hull_ccw;
        Alcotest.test_case "hull collinear" `Quick test_hull_collinear;
        Alcotest.test_case "hull degenerate" `Quick test_hull_degenerate;
        Alcotest.test_case "polygon area" `Quick test_area;
        Alcotest.test_case "point in polygon" `Quick test_point_in_polygon;
        Alcotest.test_case "outward normal" `Quick test_outward_normal;
        Alcotest.test_case "edge midpoints + normals" `Quick test_edge_midpoints;
        Alcotest.test_case "boundary resampling" `Quick test_resample;
        Alcotest.test_case "hausdorff" `Quick test_hausdorff;
        Alcotest.test_case "bounding box" `Quick test_bounding_box;
        Alcotest.test_case "centroid" `Quick test_centroid;
        QCheck_alcotest.to_alcotest prop_hull_contains_all;
        QCheck_alcotest.to_alcotest prop_hull_idempotent;
        QCheck_alcotest.to_alcotest prop_hull_matches_reference;
      ] );
  ]
