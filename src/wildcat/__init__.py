"""wildcat: category, topological complexity, and wildness rank.

Exact computation of Lusternik-Schnirelmann category, topological
complexity, and iterated wild sets for finite multigraphs and for a
symbolic calculus of w-stable one-dimensional Peano continua, together
with executable, provably minimal stratified motion plans on graphs.
"""

from .graphs import (GraphError, Edge, Vertex, EdgeInterior, GraphPoint,
                     MultiGraph, GraphRecords, build_graph, subgraph, betti1,
                     spanning_forest, Collapse, CollapseHomotopy, deforest,
                     PathStep, PLPath, constant_path, TreeRouter,
                     point_dist, cat_graph, tc_graph)
from .cohomology import (CocycleBasis, KunnethElement, h1_basis,
                         zero_divisor_cuplength)
from .regions import (VertexCell, ClosedEdgeCell, OpenEdgeCell, SubArcCell,
                      CellUnion, whole_graph_cells, Box, Shift,
                      RetractPreimage, Region)
from .planner import (PlanError, CycleCoords, MotionPlan, plan_tree,
                      plan_circle, plan_graph, lift_plan, execute,
                      GraphFiltration, cat_filtration, ProductFiltration,
                      product_cat_filtration, corrupt_plan_swap_endpoints,
                      verify_plan, VerifyReport)
from .wild import (INF, ExprError, UnstableExpressionError, InfiniteRankError,
                   Subcomplex, SeqFamily, Attachment, Node, SelfWild,
                   ZeroDimWild, SpaceExpr, graph_expr, Analysis, analyze,
                   is_connected_expr, contains_scc, contains_atom,
                   is_w_stable, wild_set,
                   wild_tower, wrk, WildProfile, profile, cat, tc,
                   Certificate, cat_certificate, tc_certificate, truncate,
                   truncation_records, truncation_size, truncation_betti1)
from .spacefile import (ParseError, SpaceFile, parse_spacefile,
                        print_spacefile, parse_point, format_point)

__version__ = "0.1.0"
