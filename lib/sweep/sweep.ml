module Pool = Pool
module Journal = Journal
module Lease = Lease
module Spool = Spool
include Engine
