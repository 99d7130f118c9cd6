#include "cartcomm/cart_comm.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>

#include "cartcomm/coll.hpp"
#include "mpl/collectives.hpp"
#include "mpl/error.hpp"
#include "mpl/proc.hpp"
#include "mpl/reduce.hpp"
#include "mpl/schedule.hpp"

namespace cartcomm {

namespace {

Algorithm parse_algorithm(const Info& info, const std::string& key,
                          Algorithm fallback) {
  auto it = info.find(key);
  if (it == info.end()) return fallback;
  if (it->second == "trivial") return Algorithm::trivial;
  if (it->second == "combining") return Algorithm::combining;
  if (it->second == "automatic") return Algorithm::automatic;
  throw mpl::Error("cart_neighborhood_create: bad info value for " + key +
                   ": " + it->second);
}

DimOrder parse_order(const Info& info, const std::string& key,
                     DimOrder fallback) {
  auto it = info.find(key);
  if (it == info.end()) return fallback;
  if (it->second == "natural") return DimOrder::natural;
  if (it->second == "increasing_ck") return DimOrder::increasing_ck;
  if (it->second == "decreasing_ck") return DimOrder::decreasing_ck;
  throw mpl::Error("cart_neighborhood_create: bad info value for " + key +
                   ": " + it->second);
}

/// Minimal-magnitude representative of `diff` modulo `p`, in (-p/2, p/2]
/// (ties positive).
int minimal_representative(int diff, int p) {
  diff = ((diff % p) + p) % p;
  return 2 * diff > p ? diff - p : diff;
}

}  // namespace

/// routing()'s state: per dimension the largest number of blocks one
/// merged-away message carries (0: nothing merges there; empty until first
/// use), and the views built so far by merge mask (null: no fold).
struct detail::RoutingViews {
  std::vector<double> load;
  std::vector<std::pair<std::uint64_t, std::unique_ptr<const CartNeighborComm>>>
      views;
};

std::vector<int> CartNeighborComm::relative_coord(int rank) const {
  MPL_REQUIRE(rank >= 0 && rank < size(), "relative_coord: rank out of range");
  const std::vector<int> other = grid().coords_of(rank);
  std::vector<int> rel(other.size());
  for (std::size_t k = 0; k < other.size(); ++k) {
    int diff = other[k] - coords()[k];
    rel[k] = grid().periodic(static_cast<int>(k))
                 ? minimal_representative(diff, grid().dims()[k])
                 : diff;
  }
  return rel;
}

mpl::DistGraphComm CartNeighborComm::to_dist_graph() const {
  std::vector<int> sources, targets, sweights, tweights;
  for (int i = 0; i < nb_.count(); ++i) {
    if (target_ranks_[static_cast<std::size_t>(i)] != mpl::PROC_NULL) {
      targets.push_back(target_ranks_[static_cast<std::size_t>(i)]);
      if (!weights_.empty()) tweights.push_back(weights_[static_cast<std::size_t>(i)]);
    }
    if (source_ranks_[static_cast<std::size_t>(i)] != mpl::PROC_NULL) {
      sources.push_back(source_ranks_[static_cast<std::size_t>(i)]);
      if (!weights_.empty()) sweights.push_back(weights_[static_cast<std::size_t>(i)]);
    }
  }
  return mpl::dist_graph_create_adjacent(comm(), sources, sweights, targets,
                                         tweights);
}

CartNeighborComm CartNeighborComm::with_neighborhood(Neighborhood sub) const {
  MPL_REQUIRE(valid(), "with_neighborhood on invalid communicator");
  MPL_REQUIRE(sub.ndims() == grid().ndims(),
              "with_neighborhood: arity mismatch");
  CartNeighborComm cc;
  cc.cart_ = cart_;
  cc.op_seq_ = op_seq_;
  cc.oneshot_ = std::make_shared<detail::OneShotSlots>();
  cc.routing_ = std::make_shared<detail::RoutingViews>();
  cc.stats_ = analyze(sub);
  cc.a2a_alg_ = a2a_alg_;
  cc.ag_alg_ = ag_alg_;
  cc.ag_order_ = ag_order_;
  const int t = sub.count();
  cc.target_ranks_.resize(static_cast<std::size_t>(t));
  cc.source_ranks_.resize(static_cast<std::size_t>(t));
  std::vector<int> neg(static_cast<std::size_t>(sub.ndims()));
  for (int i = 0; i < t; ++i) {
    const auto rel = sub.offset(i);
    for (std::size_t k = 0; k < neg.size(); ++k) neg[k] = -rel[k];
    cc.target_ranks_[static_cast<std::size_t>(i)] =
        cart_.grid().rank_at_offset(cart_.coords(), rel);
    cc.source_ranks_[static_cast<std::size_t>(i)] =
        cart_.grid().rank_at_offset(cart_.coords(), neg);
  }
  cc.nb_ = std::move(sub);
  cc.boundary_sig_ = cc.make_boundary_signature();
  return cc;
}

const CartNeighborComm& CartNeighborComm::with_self() const {
  if (nb_.contains_zero_vector()) return *this;
  if (!*self_view_) {
    std::vector<int> flat(nb_.flat().begin(), nb_.flat().end());
    flat.resize(flat.size() + static_cast<std::size_t>(nb_.ndims()), 0);
    *self_view_ = std::make_unique<const CartNeighborComm>(
        with_neighborhood(Neighborhood(nb_.ndims(), std::move(flat))));
  }
  return **self_view_;
}

const CartNeighborComm& CartNeighborComm::routing(std::size_t block_bytes) const {
  MPL_REQUIRE(routing_ != nullptr, "routing on an invalid communicator");
  const int d = nb_.ndims();
  detail::RoutingViews& rv = *routing_;
  if (rv.load.empty()) {
    // Merging the rounds of the k coordinates that reach one partner saves
    // k - 1 messages and carries every block of those rounds in one.
    rv.load.assign(static_cast<std::size_t>(d), 0.0);
    for (int j = 0; j < d; ++j) {
      if (!grid().periodic(j)) continue;
      // Per partner (representative): its blocks and its coordinates.
      std::map<int, std::pair<int, std::set<int>>> by_rep;
      for (int i = 0; i < nb_.count(); ++i) {
        const int c = nb_.coord(i, j);
        const int r = minimal_representative(c, grid().dims()[static_cast<std::size_t>(j)]);
        if (r == 0) continue;
        auto& [blocks, coords] = by_rep[r];
        ++blocks;
        coords.insert(c);
      }
      for (const auto& [r, bc] : by_rep) {
        const double saved = static_cast<double>(bc.second.size()) - 1;
        double& load = rv.load[static_cast<std::size_t>(j)];
        if (saved > 0) load = std::max(load, bc.first / saved);
      }
    }
  }
  // A merged message pays up to G_pack per byte at each end that the
  // separate messages overlapped with the wire, and saves their overhead o
  // at each end: merge where that holds for blocks of `block_bytes`.
  const mpl::NetConfig net = cost_model();
  std::uint64_t mask = 0;
  for (int j = 0; j < d && j < 64; ++j) {
    const double load = rv.load[static_cast<std::size_t>(j)];
    if (load > 0 && net.G_pack * static_cast<double>(block_bytes) * load <= net.o) {
      mask |= std::uint64_t{1} << j;
    }
  }
  for (const auto& [m, view] : rv.views) {
    if (m == mask) return view ? *view : *this;
  }
  std::vector<int> flat(nb_.flat().begin(), nb_.flat().end());
  bool folds = false;
  for (std::size_t x = 0; x < flat.size(); ++x) {
    const int j = static_cast<int>(x % static_cast<std::size_t>(d));
    if (!grid().periodic(j)) continue;
    const int r = minimal_representative(flat[x], grid().dims()[static_cast<std::size_t>(j)]);
    if (r != 0 && (mask >> j & 1) == 0) continue;
    folds |= r != flat[x];
    flat[x] = r;
  }
  rv.views.emplace_back(
      mask, folds ? std::make_unique<const CartNeighborComm>(with_neighborhood(
                        Neighborhood(d, std::move(flat))))
                  : nullptr);
  return rv.views.back().second ? *rv.views.back().second : *this;
}

int CartNeighborComm::next_persistent_tag() const {
  MPL_REQUIRE(op_seq_ != nullptr,
              "next_persistent_tag on an invalid communicator");
  constexpr auto kTags = static_cast<std::uint32_t>(INT_MAX - mpl::kCartTag);
  return mpl::kCartTag + 1 + static_cast<int>((*op_seq_)++ % kTags);
}

detail::OneShotSlot& CartNeighborComm::oneshot_slot(
    detail::OneShot kind) const {
  MPL_REQUIRE(oneshot_ != nullptr,
              "one-shot collective on an invalid communicator");
  return oneshot_->slots[static_cast<std::size_t>(kind)];
}

Route CartNeighborComm::route(Collective kind, Algorithm requested,
                              std::size_t block_bytes,
                              const mpl::ReduceOp* op) const {
  if (kind == Collective::allreduce) {
    return with_self().route(Collective::reduce, requested, block_bytes, op);
  }
  // The Info default; a reduction takes no hint.
  if (requested == Algorithm::automatic && kind != Collective::reduce) {
    requested = kind == Collective::alltoall ? a2a_alg_ : ag_alg_;
  }
  if (requested != Algorithm::automatic) return {requested, *this};
  // Combining must save rounds (stats_: computed once, at creation, on the
  // offsets as given). That is the allgather's whole rule: its combining
  // volume is never larger than the trivial volume (Section 3.2).
  bool combine = stats_.combining_rounds < stats_.trivial_rounds;
  if (kind == Collective::reduce) {
    // Partial aggregates reassociate and reorder contributions.
    MPL_REQUIRE(op != nullptr, "route: a reduction needs its op");
    combine = combine && op->commutative() && stats_.t > 0;
  } else if (kind == Collective::alltoall) {
    // Section 3.1's cut-off; combining routes over the folded offsets.
    combine = combine && static_cast<double>(block_bytes) <
                             predicted_cutoff_bytes(stats_, cost_model());
    if (combine) return {Algorithm::combining, routing(block_bytes)};
  }
  return {combine ? Algorithm::combining : Algorithm::trivial, *this};
}

mpl::NetConfig CartNeighborComm::cost_model() const {
  return comm().proc().clock().enabled() ? comm().proc().clock().config()
                                         : mpl::NetConfig::omnipath();
}

std::vector<int> CartNeighborComm::make_boundary_signature() const {
  const mpl::CartGrid& g = grid();
  const std::span<const int> R = coords();
  const int d = nb_.ndims();
  std::vector<int> sig(static_cast<std::size_t>(d) * 2, -1);
  for (int j = 0; j < d; ++j) {
    if (g.periodic(j)) continue;  // (-1, -1): position is irrelevant
    int reach = 0;
    for (int i = 0; i < nb_.count(); ++i) {
      reach = std::max(reach, std::abs(nb_.coord(i, j)));
    }
    const std::size_t uj = static_cast<std::size_t>(j);
    sig[uj * 2] = std::min(R[uj], reach);
    sig[uj * 2 + 1] = std::min(g.dims()[uj] - 1 - R[uj], reach);
  }
  return sig;
}

CartNeighborComm cart_neighborhood_create(const mpl::Comm& comm,
                                          std::span<const int> dims,
                                          std::span<const int> periods,
                                          const Neighborhood& targets,
                                          std::span<const int> weights,
                                          const Info& info, bool reorder) {
  MPL_REQUIRE(targets.ndims() == static_cast<int>(dims.size()),
              "cart_neighborhood_create: neighborhood arity != #dims");
  MPL_REQUIRE(weights.empty() ||
                  weights.size() == static_cast<std::size_t>(targets.count()),
              "cart_neighborhood_create: one weight per neighbor required");

  // The Cartesian requirement: every process must supply the same list of
  // relative coordinates (checked with the O(t) broadcast of Section 2.2).
  MPL_REQUIRE(is_isomorphic_neighborhood(comm, targets),
              "cart_neighborhood_create: neighborhoods are not isomorphic "
              "(all processes must pass the identical target list)");

  CartNeighborComm base;
  base.cart_ = mpl::cart_create(comm, dims, periods, reorder);
  base.op_seq_ = std::make_shared<std::uint32_t>(0);
  base.a2a_alg_ = parse_algorithm(info, "alltoall_algorithm", Algorithm::automatic);
  base.ag_alg_ = parse_algorithm(info, "allgather_algorithm", Algorithm::automatic);
  base.ag_order_ = parse_order(info, "allgather_order", DimOrder::increasing_ck);
  CartNeighborComm cc = base.with_neighborhood(targets);
  cc.weights_.assign(weights.begin(), weights.end());
  return cc;
}

std::optional<CartNeighborComm> detect_cartesian(
    const mpl::CartComm& cart, std::span<const int> target_ranks,
    const Info& info) {
  // Reconstruct the relative neighborhood from the absolute target ranks:
  // each target's coordinates relative to the calling process, using the
  // minimal-magnitude representative in periodic dimensions. Identical
  // target offsets reconstruct identically on every process, so the
  // isomorphism check below is exact for neighborhoods with offsets within
  // the representative range.
  const int d = cart.ndims();
  std::vector<int> flat;
  flat.reserve(target_ranks.size() * static_cast<std::size_t>(d));
  // Reuse the Listing 2 helper via a temporary view with an empty
  // neighborhood (relative_coord needs only the grid and coordinates).
  CartNeighborComm view;
  view.cart_ = cart;
  bool valid = true;
  for (const int r : target_ranks) {
    if (r < 0 || r >= cart.size()) {
      valid = false;
      break;
    }
    const std::vector<int> rel = view.relative_coord(r);
    flat.insert(flat.end(), rel.begin(), rel.end());
  }
  // Agree on validity first so every process executes the same collectives.
  if (mpl::allreduce(valid ? 1 : 0, mpl::ReduceOp::logical_and<int>(),
                     cart.comm()) == 0) {
    return std::nullopt;
  }
  Neighborhood nb(d, std::move(flat));
  if (!is_isomorphic_neighborhood(cart.comm(), nb)) return std::nullopt;
  return cart_neighborhood_create(cart.comm(), cart.dims(),
                                  cart.grid().periods(), nb, {}, info);
}

bool is_isomorphic_neighborhood(const mpl::Comm& comm, const Neighborhood& nb) {
  // Broadcast the neighbor count from rank 0; everyone compares.
  int t_and_d[2] = {nb.count(), nb.ndims()};
  mpl::bcast(t_and_d, 2, mpl::Datatype::of<int>(), 0, comm);
  bool same = (t_and_d[0] == nb.count() && t_and_d[1] == nb.ndims());
  // Broadcast rank 0's offsets (size O(t*d)); compare element-wise. The
  // paper compares in sorted order; list order matters for buffer block
  // placement in the collective operations, so we require identical lists.
  std::vector<int> root_flat(static_cast<std::size_t>(t_and_d[0]) *
                             static_cast<std::size_t>(t_and_d[1]));
  if (comm.rank() == 0) {
    root_flat.assign(nb.flat().begin(), nb.flat().end());
  }
  mpl::bcast(root_flat.data(), static_cast<int>(root_flat.size()),
             mpl::Datatype::of<int>(), 0, comm);
  if (same) {
    same = std::equal(root_flat.begin(), root_flat.end(), nb.flat().begin(),
                      nb.flat().end());
  }
  return mpl::allreduce(same ? 1 : 0, mpl::ReduceOp::logical_and<int>(),
                        comm) != 0;
}

}  // namespace cartcomm
