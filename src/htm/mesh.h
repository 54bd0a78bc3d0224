// Precomputed HTM mesh: the geometry of every trixel at levels
// 0..kMaxMeshLevel, stored once per process in id order.
//
// A trixel's corners, bounding circle and area are a fixed function of its
// id. The mesh computes each value once, with the Trixel functions
// themselves, so every double it holds is bit-identical to what
// Trixel::from_id(id) yields. Covers, locates and row estimates read from
// it return exactly what a node-by-node recursion over Trixel objects
// returns, without its ~10 sqrt/atan2 calls per visited node.
//
// Each level is built lazily on first use, once per process behind
// std::call_once, and is read-only afterwards: the returned spans may be
// shared freely across threads.
#pragma once

#include <array>
#include <span>

#include "htm/trixel.h"
#include "htm/vec3.h"

namespace delta::htm {

/// Deepest level the mesh serves. The mesh grows 4x per level: levels
/// 0..5 hold 10,920 nodes (1.2 MB), levels 0..8 hold 699,048 (78 MB).
inline constexpr int kMaxMeshLevel = 8;

/// One trixel's geometry, each field equal (==) to the matching Trixel
/// accessor of Trixel::from_id(id).
struct MeshNode {
  std::array<Vec3, 3> vertices;
  Vec3 center;             // Trixel::center()
  double bounding_radius;  // Trixel::bounding_radius()
  double area;             // Trixel::area()

  /// Same test, on the same corners, as Trixel::contains.
  [[nodiscard]] bool contains(const Vec3& p) const {
    return triangle_contains(vertices, p);
  }
};

/// The nodes of `level` in index_in_level order (node i is trixel
/// id_from_index(level, i)). Builds the level on first use. Requires
/// 0 <= level <= kMaxMeshLevel (DELTA_CHECK).
std::span<const MeshNode> mesh_level(int level);

/// Node tables of levels 0..level for a top-down descent: rows[l][i] is
/// node i of level l (entries past `level` are null). Same requirement on
/// `level` as mesh_level.
using MeshRows = std::array<const MeshNode*, kMaxMeshLevel + 1>;
MeshRows mesh_rows(int level);

}  // namespace delta::htm
