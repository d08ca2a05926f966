#include "routing/minor_adapt.hpp"

#include <cassert>
#include <utility>

namespace pofl {

namespace {

class DeletionAdaptedPattern final : public ForwardingPattern {
 public:
  DeletionAdaptedPattern(std::shared_ptr<const ForwardingPattern> inner, Graph original,
                         const IdSet& deleted)
      : inner_(std::move(inner)), original_(std::move(original)) {
    reduced_ = original_.without_edges(deleted, &mapping_);
  }

  [[nodiscard]] const Graph& reduced_graph() const { return reduced_; }

  [[nodiscard]] RoutingModel model() const override { return inner_->model(); }
  [[nodiscard]] std::string name() const override { return inner_->name() + "+deletion"; }
  [[nodiscard]] bool reads_source() const override { return inner_->reads_source(); }

  [[nodiscard]] std::optional<EdgeId> forward(const Graph& g, VertexId at, EdgeId inport,
                                              const IdSet& local_failures,
                                              const Header& header) const override {
    assert(g.num_edges() == reduced_.num_edges());
    (void)g;
    // Vertices keep their ids under edge deletion; edges translate.
    IdSet original_failures = original_.empty_edge_set();
    for (EdgeId e = 0; e < original_.num_edges(); ++e) {
      const EdgeId re = mapping_.edge_to_new[static_cast<size_t>(e)];
      if (re == kNoEdge) {
        original_failures.insert(e);  // deleted = permanently failed
      } else if (local_failures.contains(re)) {
        original_failures.insert(e);
      }
    }
    const EdgeId original_inport =
        inport == kNoEdge ? kNoEdge : mapping_.edge_to_old[static_cast<size_t>(inport)];
    const IdSet local = original_failures & original_.incident_edge_set(at);
    const auto out = inner_->forward(original_, at, original_inport, local, header);
    if (!out.has_value()) return std::nullopt;
    const EdgeId mapped = mapping_.edge_to_new[static_cast<size_t>(*out)];
    if (mapped == kNoEdge) return std::nullopt;  // chose a deleted link: invalid anyway
    return mapped;
  }

 private:
  std::shared_ptr<const ForwardingPattern> inner_;
  Graph original_;
  Graph reduced_;
  GraphMapping mapping_;
};

class ContractionAdaptedPattern final : public ForwardingPattern {
 public:
  ContractionAdaptedPattern(std::shared_ptr<const ForwardingPattern> inner, Graph original,
                            EdgeId contracted)
      : inner_(std::move(inner)), original_(std::move(original)), contracted_(contracted) {
    u_ = original_.edge(contracted_).u;
    v_ = original_.edge(contracted_).v;
    reduced_ = original_.contracted(contracted_, &mapping_);
    merged_ = mapping_.vertex_to_new[static_cast<size_t>(u_)];
  }

  [[nodiscard]] const Graph& reduced_graph() const { return reduced_; }

  [[nodiscard]] RoutingModel model() const override { return inner_->model(); }
  [[nodiscard]] std::string name() const override { return inner_->name() + "+contraction"; }
  [[nodiscard]] bool reads_source() const override { return inner_->reads_source(); }

  [[nodiscard]] std::optional<EdgeId> forward(const Graph& g, VertexId at, EdgeId inport,
                                              const IdSet& local_failures,
                                              const Header& header) const override {
    (void)g;
    // Translate the header; the merged vertex is represented by its smaller
    // original endpoint (Graph::contracted's representative).
    const auto map_vertex = [&](VertexId rv) {
      if (rv == kNoVertex) return kNoVertex;
      return mapping_.vertex_to_old[static_cast<size_t>(rv)];
    };
    Header original_header{map_vertex(header.source), map_vertex(header.destination)};

    // Failure translation. The contracted link itself stays alive (it lives
    // inside the merged node). When two original edges collapsed into one
    // reduced edge, the non-canonical one behaves as deleted (contraction
    // with parallel collapse = deletion + contraction), i.e. permanently
    // failed for the inner pattern.
    IdSet original_failures = original_.empty_edge_set();
    for (EdgeId e = 0; e < original_.num_edges(); ++e) {
      if (e == contracted_) continue;
      const EdgeId re = mapping_.edge_to_new[static_cast<size_t>(e)];
      if (re == kNoEdge || mapping_.edge_to_old[static_cast<size_t>(re)] != e) {
        original_failures.insert(e);  // collapsed-away parallel
      } else if (local_failures.contains(re)) {
        original_failures.insert(e);
      }
    }

    // Where does the walk start inside the merged node?
    VertexId side;
    EdgeId original_inport = kNoEdge;
    if (at == merged_) {
      if (inport == kNoEdge) {
        side = std::min(u_, v_);  // the representative starts the walk
      } else {
        original_inport = mapping_.edge_to_old[static_cast<size_t>(inport)];
        const Edge& oe = original_.edge(original_inport);
        side = (oe.u == u_ || oe.v == u_) ? u_ : v_;
      }
    } else {
      side = mapping_.vertex_to_old[static_cast<size_t>(at)];
      if (inport != kNoEdge) original_inport = mapping_.edge_to_old[static_cast<size_t>(inport)];
    }

    // Simulate within the merged node: at most one hand-over across the
    // contracted link per visit; a second one means the original pattern
    // bounces u-v-u forever (a loop), which we surface as a drop.
    for (int internal = 0; internal < 3; ++internal) {
      const IdSet local = original_failures & original_.incident_edge_set(side);
      const auto out = inner_->forward(original_, side, original_inport, local, original_header);
      if (!out.has_value()) return std::nullopt;
      if (*out == contracted_) {
        if (at != merged_) return std::nullopt;  // cannot happen: edge not incident
        side = side == u_ ? v_ : u_;
        original_inport = contracted_;
        continue;
      }
      const EdgeId mapped = mapping_.edge_to_new[static_cast<size_t>(*out)];
      if (mapped == kNoEdge) return std::nullopt;
      return mapped;
    }
    return std::nullopt;  // internal u-v bounce: original pattern loops here
  }

 private:
  std::shared_ptr<const ForwardingPattern> inner_;
  Graph original_;
  EdgeId contracted_;
  VertexId u_ = kNoVertex, v_ = kNoVertex;
  Graph reduced_;
  GraphMapping mapping_;
  VertexId merged_ = kNoVertex;
};

}  // namespace

std::unique_ptr<ForwardingPattern> adapt_to_edge_deletion(
    std::shared_ptr<const ForwardingPattern> inner, Graph original, const IdSet& deleted) {
  return std::make_unique<DeletionAdaptedPattern>(std::move(inner), std::move(original), deleted);
}

std::unique_ptr<ForwardingPattern> adapt_to_contraction(
    std::shared_ptr<const ForwardingPattern> inner, Graph original, EdgeId contracted_edge) {
  return std::make_unique<ContractionAdaptedPattern>(std::move(inner), std::move(original),
                                                     contracted_edge);
}

}  // namespace pofl
