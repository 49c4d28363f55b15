// Graph file I/O.
//
// Two formats:
//   * SNAP edge list — the format of the public SNAP datasets the repro hint
//     points at: one "u v [w]" pair per line, '#' comment lines ignored.
//     Vertex ids are compacted to a dense [0, n) range on load (SNAP files
//     often have gaps).
//   * Pajek .net — the tool the paper used to generate its graphs:
//     "*Vertices n" followed by "*Edges"/"*Arcs" with 1-based endpoints.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "graph/graph.hpp"

namespace aa {

/// Thrown on malformed input files.
class IoError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

DynamicGraph read_snap_edge_list(std::istream& in);
DynamicGraph read_snap_edge_list_file(const std::string& path);
void write_snap_edge_list(const DynamicGraph& g, std::ostream& out);
void write_snap_edge_list_file(const DynamicGraph& g, const std::string& path);

DynamicGraph read_pajek(std::istream& in);
void write_pajek(const DynamicGraph& g, std::ostream& out);
void write_pajek_file(const DynamicGraph& g, const std::string& path);

/// METIS .graph format (the native input of the partitioner family our DD
/// phase reimplements): header "n m [fmt]" followed by one adjacency line
/// per vertex, 1-based ids; fmt "1" means edge weights are interleaved.
DynamicGraph read_metis(std::istream& in);
void write_metis(const DynamicGraph& g, std::ostream& out);

}  // namespace aa
