#include "stencil/halo.hpp"

#include <algorithm>

#include "cartcomm/build_schedule.hpp"
#include "mpl/error.hpp"

namespace stencil {

mpl::Datatype box_type(std::span<const int> padded, std::span<const int> lo,
                       std::span<const int> hi, const mpl::Datatype& elem) {
  const int d = static_cast<int>(padded.size());
  MPL_REQUIRE(lo.size() == padded.size() && hi.size() == padded.size(),
              "box_type: arity mismatch");
  MPL_REQUIRE(elem.size() == static_cast<std::size_t>(elem.extent()),
              "box_type: element type must be dense");
  for (int k = 0; k < d; ++k) {
    MPL_REQUIRE(0 <= lo[static_cast<std::size_t>(k)] &&
                    lo[static_cast<std::size_t>(k)] <= hi[static_cast<std::size_t>(k)] &&
                    hi[static_cast<std::size_t>(k)] <= padded[static_cast<std::size_t>(k)],
                "box_type: box out of bounds");
  }

  // One contiguous run per combination of the outer d-1 coordinates.
  const int run = hi[static_cast<std::size_t>(d - 1)] - lo[static_cast<std::size_t>(d - 1)];
  std::vector<int> lens;
  std::vector<std::ptrdiff_t> displs;
  std::vector<int> idx(lo.begin(), lo.end() - 1);
  const std::ptrdiff_t esz = static_cast<std::ptrdiff_t>(elem.size());
  bool more = true;
  if (run == 0) more = false;
  for (int k = 0; k + 1 < d; ++k) {
    if (lo[static_cast<std::size_t>(k)] == hi[static_cast<std::size_t>(k)]) more = false;
  }
  while (more) {
    std::ptrdiff_t lin = 0;
    for (int k = 0; k + 1 < d; ++k) {
      lin = lin * padded[static_cast<std::size_t>(k)] + idx[static_cast<std::size_t>(k)];
    }
    lin = lin * padded[static_cast<std::size_t>(d - 1)] + lo[static_cast<std::size_t>(d - 1)];
    lens.push_back(run);
    displs.push_back(lin * esz);
    // Advance the odometer over the outer dimensions.
    int k = d - 2;
    for (; k >= 0; --k) {
      if (++idx[static_cast<std::size_t>(k)] < hi[static_cast<std::size_t>(k)]) break;
      idx[static_cast<std::size_t>(k)] = lo[static_cast<std::size_t>(k)];
    }
    if (k < 0) more = false;
  }
  return mpl::Datatype::hindexed(lens, displs, elem);
}

namespace {

using cartcomm::Neighborhood;
using cartcomm::RecvBlock;
using cartcomm::SendBlock;

struct Geometry {
  std::vector<int> padded;
  std::vector<int> interior;
  int h;
  char* base;
  mpl::Datatype elem;

  // Per-dimension padded ranges. side: -1 low, +1 high, 0 interior.
  // `send` selects the interior edge layer shipped toward `side`; the
  // opposite selects the ghost layer filled from `side`'s direction.
  std::pair<int, int> send_range(int k, int side) const {
    const int n = interior[static_cast<std::size_t>(k)];
    if (side > 0) return {n, n + h};      // top h interior layers
    if (side < 0) return {h, 2 * h};      // bottom h interior layers
    return {h, h + n};
  }
  std::pair<int, int> recv_range(int k, int side_of_source) const {
    const int n = interior[static_cast<std::size_t>(k)];
    if (side_of_source > 0) return {h + n, h + n + h};  // high ghost layers
    if (side_of_source < 0) return {0, h};              // low ghost layers
    return {h, h + n};
  }

  mpl::Datatype box(std::span<const int> lo, std::span<const int> hi) const {
    return box_type(padded, lo, hi, elem);
  }
};

// Full Moore-shell plan: block i sent toward offset N[i] is the interior
// edge region in that direction; block i received (from the source at
// -N[i]) fills the ghost region on the -N[i] side.
void moore_blocks(const Geometry& g, const Neighborhood& nb,
                  std::vector<SendBlock>& sends, std::vector<RecvBlock>& recvs) {
  const int d = nb.ndims();
  std::vector<int> slo(static_cast<std::size_t>(d)), shi(static_cast<std::size_t>(d));
  std::vector<int> rlo(static_cast<std::size_t>(d)), rhi(static_cast<std::size_t>(d));
  for (int i = 0; i < nb.count(); ++i) {
    for (int k = 0; k < d; ++k) {
      const int c = nb.coord(i, k);
      std::tie(slo[static_cast<std::size_t>(k)], shi[static_cast<std::size_t>(k)]) =
          g.send_range(k, c);
      // Source sits at -c: its data fills my ghosts on the -c side.
      std::tie(rlo[static_cast<std::size_t>(k)], rhi[static_cast<std::size_t>(k)]) =
          g.recv_range(k, -c);
    }
    sends.push_back({g.base, 1, g.box(slo, shi)});
    recvs.push_back({g.base, 1, g.box(rlo, rhi)});
  }
}

}  // namespace

HaloExchange::HaloExchange(const mpl::Comm& comm,
                           std::span<const int> proc_dims,
                           std::span<const int> periods, void* data,
                           std::span<const int> interior, int depth,
                           const mpl::Datatype& elem, HaloMode mode,
                           cartcomm::Algorithm alg) {
  const int d = static_cast<int>(interior.size());
  MPL_REQUIRE(static_cast<int>(proc_dims.size()) == d,
              "HaloExchange: process grid arity must match the field");
  MPL_REQUIRE(depth >= 1, "HaloExchange: halo depth must be positive");
  mode_ = mode;
  comm_ = comm;

  Geometry g;
  g.interior.assign(interior.begin(), interior.end());
  g.h = depth;
  g.base = static_cast<char*>(data);
  g.elem = elem;
  for (int e : interior) {
    g.padded.push_back(e + 2 * depth);
    MPL_REQUIRE(e >= 2 * depth,
                "HaloExchange: interior extents must cover the halo depth");
  }

  // The Moore shell (3^d - 1 offsets, no self block).
  std::vector<int> flat;
  {
    const Neighborhood full = Neighborhood::moore(d);
    for (int i = 0; i < full.count(); ++i) {
      if (full.nonzeros(i) == 0) continue;
      flat.insert(flat.end(), full.offset(i).begin(), full.offset(i).end());
    }
  }
  const Neighborhood shell(d, std::move(flat));
  cc_ = cartcomm::cart_neighborhood_create(comm, proc_dims, periods, shell);

  if (mode == HaloMode::alltoallw) {
    std::vector<SendBlock> sends;
    std::vector<RecvBlock> recvs;
    moore_blocks(g, shell, sends, recvs);
    std::vector<int> counts(sends.size(), 1);
    std::vector<std::ptrdiff_t> displs(sends.size(), 0);
    std::vector<mpl::Datatype> stypes, rtypes;
    for (const SendBlock& s : sends) stypes.push_back(s.type);
    for (const RecvBlock& r : recvs) rtypes.push_back(r.type);
    op_ = cartcomm::alltoallw_init(g.base, counts, displs, stypes, g.base,
                                   counts, displs, rtypes, cc_, alg);
    return;
  }

  // Combined mode (Section 3.4), generalized to any dimension: the halo
  // frame decomposes into overlap-free regions classified per dimension as
  // {low edge, middle, high edge}. Regions touching exactly one edge (the
  // corner-free face strips) have a single consumer each and form one
  // alltoall schedule over the von Neumann shell; every region touching
  // z >= 2 edges (corners in 2-D; edges and vertices in 3-D, ...) is
  // replicated to its 2^z - 1 consumers by one allgather schedule. All
  // parts merge into one plan with offset-congruent rounds coalesced, so
  // the round count stays at C = 2d while the overlap volume is saved.
  const int h = depth;
  std::vector<cartcomm::Schedule> parts;

  // Padded range of the middle (edge-free) segment of dimension k.
  auto middle = [&](int k) {
    return std::pair<int, int>{2 * h, g.interior[static_cast<std::size_t>(k)]};
  };

  {  // Face strips: one consumer each -> a single alltoall part.
    const Neighborhood faces = Neighborhood::von_neumann(d);
    std::vector<SendBlock> sends;
    std::vector<RecvBlock> recvs;
    std::vector<int> slo(static_cast<std::size_t>(d)), shi(static_cast<std::size_t>(d));
    std::vector<int> rlo(static_cast<std::size_t>(d)), rhi(static_cast<std::size_t>(d));
    for (int i = 0; i < faces.count(); ++i) {
      for (int k = 0; k < d; ++k) {
        const int c = faces.coord(i, k);
        const std::size_t uk = static_cast<std::size_t>(k);
        if (c != 0) {
          std::tie(slo[uk], shi[uk]) = g.send_range(k, c);
          std::tie(rlo[uk], rhi[uk]) = g.recv_range(k, -c);
        } else {
          std::tie(slo[uk], shi[uk]) = middle(k);
          std::tie(rlo[uk], rhi[uk]) = middle(k);
        }
      }
      sends.push_back({g.base, 1, g.box(slo, shi)});
      recvs.push_back({g.base, 1, g.box(rlo, rhi)});
    }
    parts.push_back(cartcomm::build_alltoall_schedule(
        cc_.with_neighborhood(faces), sends, recvs,
        cartcomm::Algorithm::combining));
  }

  // Overlap regions: every sign vector v in {-1,0,+1}^d with >= 2
  // non-zero components, enumerated in a fixed odometer order.
  std::vector<int> v(static_cast<std::size_t>(d), -1);
  while (true) {
    int nz = 0;
    for (int x : v) nz += (x != 0);
    if (nz >= 2) {
      // Sub-neighborhood: all w with w_k in {0, v_k}, w != 0, odometer
      // order over the non-zero dimensions of v.
      std::vector<int> flat;
      std::vector<int> w(static_cast<std::size_t>(d), 0);
      std::vector<int> nzdims;
      for (int k = 0; k < d; ++k) {
        if (v[static_cast<std::size_t>(k)] != 0) nzdims.push_back(k);
      }
      for (long long mask = 1; mask < (1LL << nz); ++mask) {
        std::fill(w.begin(), w.end(), 0);
        for (int b = 0; b < nz; ++b) {
          if (mask & (1LL << b)) {
            w[static_cast<std::size_t>(nzdims[static_cast<std::size_t>(b)])] =
                v[static_cast<std::size_t>(nzdims[static_cast<std::size_t>(b)])];
          }
        }
        flat.insert(flat.end(), w.begin(), w.end());
      }
      const Neighborhood region(d, std::move(flat));

      std::vector<int> slo(static_cast<std::size_t>(d)), shi(static_cast<std::size_t>(d));
      for (int k = 0; k < d; ++k) {
        const std::size_t uk = static_cast<std::size_t>(k);
        if (v[uk] != 0) {
          std::tie(slo[uk], shi[uk]) = g.send_range(k, v[uk]);
        } else {
          std::tie(slo[uk], shi[uk]) = middle(k);
        }
      }
      const SendBlock send{g.base, 1, g.box(slo, shi)};

      std::vector<RecvBlock> recvs;
      std::vector<int> rlo(static_cast<std::size_t>(d)), rhi(static_cast<std::size_t>(d));
      for (int i = 0; i < region.count(); ++i) {
        for (int k = 0; k < d; ++k) {
          const std::size_t uk = static_cast<std::size_t>(k);
          const int wk = region.coord(i, k);
          if (wk != 0) {
            // Ghost layers on the source's side (source sits at -w).
            std::tie(rlo[uk], rhi[uk]) = g.recv_range(k, -wk);
          } else if (v[uk] != 0) {
            // Aligned dimension: the source's edge segment maps onto this
            // process' own interior end segment on the same side.
            std::tie(rlo[uk], rhi[uk]) = g.send_range(k, v[uk]);
          } else {
            std::tie(rlo[uk], rhi[uk]) = middle(k);
          }
        }
        recvs.push_back({g.base, 1, g.box(rlo, rhi)});
      }
      parts.push_back(cartcomm::build_allgather_schedule(
          cc_.with_neighborhood(region), send, recvs,
          cartcomm::DimOrder::natural));
    }
    // Odometer over {-1,0,+1}^d.
    int k = d - 1;
    while (k >= 0 && v[static_cast<std::size_t>(k)] == 1) {
      v[static_cast<std::size_t>(k)] = -1;
      --k;
    }
    if (k < 0) break;
    ++v[static_cast<std::size_t>(k)];
  }
  combined_ = cartcomm::Schedule::merge(std::move(parts));
}

void HaloExchange::exchange() const {
  if (mode_ == HaloMode::alltoallw) {
    op_.execute();
  } else {
    combined_.execute(cc_.comm());
  }
}

long long HaloExchange::send_bytes() const {
  return mode_ == HaloMode::combined ? combined_.send_bytes()
                                     : op_.schedule().send_bytes();
}

int HaloExchange::rounds() const {
  return mode_ == HaloMode::combined ? combined_.rounds()
                                     : op_.schedule().rounds();
}

}  // namespace stencil
