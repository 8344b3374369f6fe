#include "dist/tree_fold.hpp"

#include <stdexcept>
#include <string>

namespace dmc::dist {

NodeSite node_site(const congest::Network& net, const ElimTreeResult& tree,
                   const LocalBag& bag, int v,
                   const std::vector<std::string>& vlabels,
                   const std::vector<std::string>& elabels,
                   bool negate_weights) {
  const Graph& g = net.graph();
  auto port_to = [&](int w) {
    const int port = g.port_of(v, w);
    if (port < 0)
      throw std::logic_error("tree fold: elimination-tree edge " +
                             std::to_string(v) + "-" + std::to_string(w) +
                             " is not a graph edge");
    return port;
  };
  NodeSite site;
  if (tree.parent[v] >= 0) site.parent_port = port_to(tree.parent[v]);
  std::vector<VertexId> child_ids;
  for (int c : tree.children[v]) {
    child_ids.push_back(net.id_of_vertex(c));
    site.child_ports.push_back(port_to(c));
  }
  site.local = make_local_context(bag, child_ids, vlabels, elabels);
  if (negate_weights) {
    Graph& lg = site.local.graph;
    for (VertexId lv = 0; lv < lg.num_vertices(); ++lv)
      lg.set_vertex_weight(lv, -lg.vertex_weight(lv));
    for (EdgeId le = 0; le < lg.num_edges(); ++le)
      lg.set_edge_weight(le, -lg.edge_weight(le));
  }
  return site;
}

bpt::Engine& engine_or_own(bpt::Engine* given, std::optional<bpt::Engine>& own,
                           const mso::Formula& lowered, const Frees& frees) {
  if (given != nullptr) return *given;
  own.emplace(bpt::config_for(lowered, frees));
  return *own;
}

}  // namespace dmc::dist
