// Umbrella header for the Cartesian Collective Communication library.
#pragma once

#include "cartcomm/analysis.hpp"
#include "cartcomm/build_schedule.hpp"
#include "cartcomm/cart_comm.hpp"
#include "cartcomm/coll.hpp"
#include "cartcomm/neighborhood.hpp"
#include "cartcomm/reduce.hpp"
