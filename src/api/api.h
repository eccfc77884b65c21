#ifndef ALAE_API_API_H_
#define ALAE_API_API_H_

// Umbrella header for the public search facade:
//
//   AlignerRegistry registry(text);              // index once
//   auto aligner = registry.Create("alae");      // pick a backend by name
//   SearchRequest request;
//   request.query = query;
//   request.threshold = 20;
//   auto response = (*aligner)->Search(request); // or the HitSink overload
//
// See src/api/aligner.h for the interface contract and src/api/registry.h
// for the backend matrix.

#include "src/api/aligner.h"    // IWYU pragma: export
#include "src/api/backends.h"   // IWYU pragma: export
#include "src/api/plan.h"       // IWYU pragma: export
#include "src/api/registry.h"   // IWYU pragma: export
#include "src/api/search.h"     // IWYU pragma: export
#include "src/api/status.h"     // IWYU pragma: export

#endif  // ALAE_API_API_H_
