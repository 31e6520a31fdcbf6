(** Planar computational geometry.

    Points are pairs [(x, y)].  Polygons are point lists; convex
    polygons produced by {!convex_hull} are in counter-clockwise order
    without a repeated endpoint.  Used to represent Birkhoff centres
    and test inclusion of stationary samples. *)

type point = float * float

val cross : point -> point -> point -> float
(** [cross o a b] is the z-component of [(a - o) x (b - o)]: positive
    for a left turn. *)

val dist : point -> point -> float

val convex_hull : point list -> point list
(** Andrew's monotone chain; collinear points on the hull boundary are
    dropped.  Degenerate inputs (fewer than 3 distinct points) return
    the distinct points.

    Points are distinct unless [compare] calls them equal: coordinate
    by coordinate, [0.] equals [-0.] and NaN equals NaN.  Of such equal
    points the result carries the one [List.sort_uniq compare] keeps:
    [sort_uniq]'s merge sort splits n points into n/2 and n - n/2 down
    to leaves of 2 or 3, and it keeps the first of the equal points in
    input order, except when the first two points of a 3-point leaf are
    equal, where it keeps the second.  The result is bitwise
    [List.sort_uniq compare] followed by a list monotone chain; the
    implementation sorts unboxed coordinate arrays instead. *)

val convex_hull_xy : float array -> float array -> point list
(** [convex_hull_xy xs ys] is {!convex_hull} of the points
    [(xs.(k), ys.(k))] in the order of [k], without building the point
    list.  The arrays are not modified.
    @raise Invalid_argument if the arrays differ in length. *)

val polygon_area : point list -> float
(** Absolute area by the shoelace formula. *)

val centroid : point list -> point

val point_in_convex_polygon : ?tol:float -> point -> point list -> bool
(** Membership in a CCW convex polygon, inclusive of the boundary up to
    a perpendicular distance [tol] (default 1e-12) from each edge. *)

val violation_depth : point -> point list -> float
(** How far outside a CCW convex polygon a point lies: 0 inside, else
    the largest outward signed distance over the edges (a lower bound
    on the true distance to the polygon, exact when the nearest feature
    is an edge). *)

val edges : point list -> (point * point) list
(** Consecutive edges, closing the polygon. *)

val outward_normal : point -> point -> point
(** Unit outward normal of the directed edge [(a, b)] of a CCW
    polygon. *)

val edge_midpoints : point list -> (point * point) list
(** For each edge of a CCW polygon: its midpoint paired with its unit
    outward normal. *)

val resample_boundary : point list -> int -> point list
(** [n] points evenly spaced (by arc length) along the closed polygon
    boundary. *)

val hausdorff : point list -> point list -> float
(** Symmetric Hausdorff distance between two point sets (brute
    force). *)

val bounding_box : point list -> point * point
(** [(xmin, ymin), (xmax, ymax)]. *)
