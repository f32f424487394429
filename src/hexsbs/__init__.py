"""Exact SL2 boundary-word invariants and stone/bone/snake tilings of
finite hexagonal-grid regions."""

from .cyclo import (ALPHA, BETA, GAMMA, IDENTITY, MINUS_IDENTITY, CycInt,
                    Mat2, PMClass, classify_pm, generator_matrix, omega_power)
from .hexgrid import (BoundaryWord, Region, RegionError, grow_random_region,
                      is_closed, path_endpoint, region_boundary_word,
                      region_from_ascii, region_from_json, region_validate)
from .search import (CensusReport, GroupProbeResult, Reduction,
                     RelationRecord, SearchConfig, enumerate_identity_words,
                     group_closure_probe, identity_endpoint_lattice,
                     identity_word_census, reduce_relation_list,
                     verify_reduction_table)
from .tiling import (ConstructionStep, Placement, SignedTiling, StoneProbe,
                     TileShape, boundary_obstruction_check,
                     constructible_sequence_check, enumerate_placements,
                     min_stone_probe, signed_tiling_solve,
                     signed_tiling_verify, solve_cell_target,
                     standard_tiling_solve, tile_catalog, tile_shape)
from .words import (ClosureClass, Word, WordError, closure, edge_to_step,
                    eval_word, free_reduce, invert_word, parse_word,
                    rotate120, step_to_edge)

__version__ = "0.1.0"
