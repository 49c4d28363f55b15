#include "graph/io.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <unordered_map>

namespace aa {

namespace {

std::ifstream open_input(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw IoError("cannot open file for reading: " + path);
    }
    return in;
}

std::ofstream open_output(const std::string& path) {
    std::ofstream out(path);
    if (!out) {
        throw IoError("cannot open file for writing: " + path);
    }
    return out;
}

}  // namespace

DynamicGraph read_snap_edge_list(std::istream& in) {
    struct RawEdge {
        std::uint64_t u;
        std::uint64_t v;
        Weight w;
    };
    std::vector<RawEdge> raw;
    std::uint64_t max_id = 0;
    std::size_t distinct_bound = 0;  // upper bound: 2 * edges

    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#' || line[0] == '%') {
            continue;
        }
        std::istringstream fields(line);
        std::uint64_t u = 0;
        std::uint64_t v = 0;
        if (!(fields >> u >> v)) {
            throw IoError("malformed SNAP line " + std::to_string(line_no) + ": " +
                          line);
        }
        Weight w = 1.0;
        fields >> w;  // optional third column
        if (w <= 0) {
            throw IoError("non-positive weight on SNAP line " +
                          std::to_string(line_no));
        }
        raw.push_back({u, v, w});
        max_id = std::max({max_id, u, v});
        distinct_bound += 2;
    }

    std::vector<Edge> edges;
    edges.reserve(raw.size());
    std::size_t n = 0;
    if (max_id < distinct_bound && max_id < (1ull << 31)) {
        // Dense-ish id space: keep the file's own numbering so round trips
        // and cross-references with external tooling are stable.
        for (const RawEdge& e : raw) {
            edges.push_back({static_cast<VertexId>(e.u), static_cast<VertexId>(e.v),
                             e.w});
        }
        n = raw.empty() ? 0 : static_cast<std::size_t>(max_id) + 1;
    } else {
        // Sparse ids (common in SNAP dumps): compact in encounter order.
        std::unordered_map<std::uint64_t, VertexId> remap;
        const auto intern = [&remap](std::uint64_t id) {
            const auto [it, inserted] =
                remap.emplace(id, static_cast<VertexId>(remap.size()));
            return it->second;
        };
        for (const RawEdge& e : raw) {
            edges.push_back({intern(e.u), intern(e.v), e.w});
        }
        n = remap.size();
    }
    return DynamicGraph::from_edges(edges, n);
}

DynamicGraph read_snap_edge_list_file(const std::string& path) {
    auto in = open_input(path);
    return read_snap_edge_list(in);
}

void write_snap_edge_list(const DynamicGraph& g, std::ostream& out) {
    out << std::setprecision(std::numeric_limits<Weight>::max_digits10);
    out << "# Undirected graph, " << g.num_vertices() << " vertices, "
        << g.num_edges() << " edges\n";
    out << "# FromNodeId\tToNodeId\tWeight\n";
    for (const Edge& e : g.edges()) {
        out << e.u << '\t' << e.v << '\t' << e.weight << '\n';
    }
}

void write_snap_edge_list_file(const DynamicGraph& g, const std::string& path) {
    auto out = open_output(path);
    write_snap_edge_list(g, out);
}

DynamicGraph read_pajek(std::istream& in) {
    std::string line;
    std::size_t n = 0;
    bool saw_vertices = false;
    std::vector<Edge> edges;
    bool in_edges = false;

    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '%') {
            continue;
        }
        std::istringstream fields(line);
        std::string token;
        fields >> token;
        for (auto& c : token) {
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
        if (token == "*vertices") {
            if (!(fields >> n)) {
                throw IoError("malformed *Vertices header");
            }
            saw_vertices = true;
            in_edges = false;
        } else if (token == "*edges" || token == "*arcs") {
            in_edges = true;
        } else if (token.starts_with("*")) {
            in_edges = false;  // *Partition etc. — skip section
        } else if (in_edges) {
            std::istringstream edge_line(line);
            std::uint64_t u = 0;
            std::uint64_t v = 0;
            if (!(edge_line >> u >> v)) {
                throw IoError("malformed edge line: " + line);
            }
            Weight w = 1.0;
            edge_line >> w;
            if (u < 1 || v < 1 || u > n || v > n) {
                throw IoError("edge endpoint out of range: " + line);
            }
            edges.push_back({static_cast<VertexId>(u - 1),
                             static_cast<VertexId>(v - 1), w});
        }
        // Vertex label lines between *Vertices and the first edge section are
        // ignored: ids are positional.
    }
    if (!saw_vertices) {
        throw IoError("missing *Vertices header");
    }
    return DynamicGraph::from_edges(edges, n);
}

void write_pajek(const DynamicGraph& g, std::ostream& out) {
    out << std::setprecision(std::numeric_limits<Weight>::max_digits10);
    out << "*Vertices " << g.num_vertices() << '\n';
    out << "*Edges\n";
    for (const Edge& e : g.edges()) {
        out << (e.u + 1) << ' ' << (e.v + 1) << ' ' << e.weight << '\n';
    }
}

void write_pajek_file(const DynamicGraph& g, const std::string& path) {
    auto out = open_output(path);
    write_pajek(g, out);
}

DynamicGraph read_metis(std::istream& in) {
    std::string line;
    // Header: skip comment lines (starting with '%').
    std::size_t n = 0;
    std::size_t m = 0;
    std::string fmt = "0";
    for (;;) {
        if (!std::getline(in, line)) {
            throw IoError("missing METIS header");
        }
        if (line.empty() || line[0] == '%') {
            continue;
        }
        std::istringstream header(line);
        if (!(header >> n >> m)) {
            throw IoError("malformed METIS header: " + line);
        }
        header >> fmt;  // optional
        break;
    }
    const bool weighted = fmt == "1" || fmt == "01" || fmt == "011";
    if (fmt != "0" && !weighted) {
        throw IoError("unsupported METIS fmt field: " + fmt);
    }

    DynamicGraph g(n);
    std::size_t vertex = 0;
    while (vertex < n) {
        if (!std::getline(in, line)) {
            throw IoError("METIS file ends before vertex " +
                          std::to_string(vertex + 1));
        }
        if (!line.empty() && line[0] == '%') {
            continue;
        }
        std::istringstream fields(line);
        std::uint64_t neighbor = 0;
        while (fields >> neighbor) {
            Weight w = 1.0;
            if (weighted && !(fields >> w)) {
                throw IoError("missing edge weight on METIS line for vertex " +
                              std::to_string(vertex + 1));
            }
            if (neighbor < 1 || neighbor > n) {
                throw IoError("METIS neighbor out of range: " +
                              std::to_string(neighbor));
            }
            // Each undirected edge appears in both adjacency lines; add once.
            if (neighbor - 1 > vertex) {
                if (w <= 0) {
                    throw IoError("non-positive METIS edge weight");
                }
                g.add_edge(static_cast<VertexId>(vertex),
                           static_cast<VertexId>(neighbor - 1), w);
            }
        }
        ++vertex;
    }
    if (g.num_edges() != m) {
        throw IoError("METIS header declares " + std::to_string(m) +
                      " edges but file contains " + std::to_string(g.num_edges()));
    }
    return g;
}

void write_metis(const DynamicGraph& g, std::ostream& out) {
    out << std::setprecision(std::numeric_limits<Weight>::max_digits10);
    // Always emit weights (fmt 1): lossless for weighted graphs, harmless
    // (all 1s) otherwise.
    out << g.num_vertices() << ' ' << g.num_edges() << " 1\n";
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        bool first = true;
        for (const Neighbor& nb : g.neighbors(v)) {
            if (!first) {
                out << ' ';
            }
            out << (nb.to + 1) << ' ' << nb.weight;
            first = false;
        }
        out << '\n';
    }
}

}  // namespace aa
