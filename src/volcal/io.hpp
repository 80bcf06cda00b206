// volcal/io.hpp — instance persistence: binary snapshots, the text format,
// and the format-sniffing load_instance/save_instance entry points.
//
//   io/instance_io.hpp  load_instance / save_instance / sniff_format
//   io/snapshot.hpp     versioned binary snapshots + mmap GraphView loader
//   io/serialize.hpp    the text layer's typed writers/readers + DOT export
#pragma once

#include "io/instance_io.hpp"
#include "io/serialize.hpp"
#include "io/snapshot.hpp"
