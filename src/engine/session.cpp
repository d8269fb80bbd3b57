#include "engine/session.h"

#include <memory>
#include <utility>

#include "engine/database.h"

namespace holix {

ColumnHandle Session::Handle(const std::string& table,
                             const std::string& column) {
  const std::string key = ColumnRegistry::Key(table, column);
  auto it = handles_.find(key);
  if (it != handles_.end() && it->second.valid()) return it->second;
  ColumnHandle h = db_->Resolve(table, column);
  handles_[key] = h;
  return h;
}

QueryResult Session::Execute(const QuerySpec& spec) {
  return db_->Execute(spec, QueryContext{&rng_});
}

RowId Session::Insert(const ColumnHandle& column, KeyScalar value) {
  return db_->Insert(column, value, QueryContext{&rng_});
}

bool Session::Delete(const ColumnHandle& column, KeyScalar value) {
  return db_->Delete(column, value, QueryContext{&rng_});
}

std::future<QueryResult> Session::SubmitExecute(QuerySpec spec) {
  Database* db = db_;
  auto task = std::make_shared<std::packaged_task<QueryResult()>>(
      [db, spec = std::move(spec)] { return db->Execute(spec); });
  std::future<QueryResult> fut = task->get_future();
  db_->client_pool().Submit([task] { (*task)(); });
  return fut;
}

void Session::SubmitRaw(std::function<void()> work) {
  db_->client_pool().Submit(std::move(work));
}

}  // namespace holix
