#include "dist/tree_fold.hpp"

#include <stdexcept>
#include <string>

namespace dmc::dist {

NodePorts node_ports(const Graph& g, const ElimTreeResult& tree, int v) {
  auto port_to = [&](int w) {
    const int port = g.port_of(v, w);
    if (port < 0)
      throw std::logic_error("tree fold: elimination-tree edge " +
                             std::to_string(v) + "-" + std::to_string(w) +
                             " is not a graph edge");
    return port;
  };
  NodePorts ports;
  if (tree.parent[v] >= 0) ports.parent_port = port_to(tree.parent[v]);
  for (int c : tree.children[v]) ports.child_ports.push_back(port_to(c));
  return ports;
}

LocalContext fold_context(const LocalBag& bag,
                          const std::vector<VertexId>& child_ids,
                          const FoldSetup& setup) {
  LocalContext local =
      make_local_context(bag, child_ids, setup.vlabels, setup.elabels);
  if (setup.negate_weights) {
    Graph& lg = local.graph;
    for (VertexId lv = 0; lv < lg.num_vertices(); ++lv)
      lg.set_vertex_weight(lv, -lg.vertex_weight(lv));
    for (EdgeId le = 0; le < lg.num_edges(); ++le)
      lg.set_edge_weight(le, -lg.edge_weight(le));
  }
  return local;
}

bpt::Engine& engine_or_own(bpt::Engine* given, std::optional<bpt::Engine>& own,
                           const mso::Formula& lowered, const Frees& frees) {
  if (given != nullptr) return *given;
  own.emplace(bpt::config_for(lowered, frees));
  return *own;
}

}  // namespace dmc::dist
